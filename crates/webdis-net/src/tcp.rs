//! A real TCP transport (`std::net`), mirroring the paper's Java socket
//! platform with one long-lived link per (sender, receiver) pair. A
//! sending thread owns a [`LinkPool`] — one `TcpStream` per peer address,
//! opened on first use — and writes each message as one length-prefixed
//! [`Frame`] over it. Every endpoint runs a listener thread (the paper's
//! *Query Receiver* / *Result Collector*) that gives each accepted link a
//! reader thread, which decodes frames onto the endpoint's channel until
//! the link closes.
//!
//! Passive query termination (Section 2.8) survives the persistent link.
//! Readers never write back, so anything readable on a pooled link means
//! the peer closed or reset it: [`LinkPool::send`] checks for that before
//! each write and reconnects. When the user-site closes its result
//! endpoint, a query server's next send therefore fails with connection
//! refused, and the server purges the query locally. Frames on one link
//! arrive in the order they were written, which is what keeps a node's
//! result report ahead of the clones it forwards (Section 2.7.1).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::messages::Message;
use crate::wire::{decode_message, Wire, WireError};

/// Maximum accepted frame size (16 MiB) — a defence against hostile or
/// corrupt length prefixes.
const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Bytes in a frame's big-endian length prefix.
const PREFIX: usize = 4;

/// How long a link's reader waits for the rest of a frame once its first
/// byte has arrived — the slowloris bound: a peer that stalls (or
/// trickles bytes) mid-frame ties up its link's reader for at most this
/// long. A link idle between frames is not a stall and never times out.
const FRAME_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Transport error.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent an undecodable frame.
    Wire(WireError),
    /// The peer sent a frame larger than the 16 MiB frame limit.
    FrameTooLarge(u32),
    /// The peer stalled mid-frame past the read-timeout bound (a
    /// slowloris peer, a dying host). Transient: the sender may retry.
    Timeout,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "transport I/O error: {e}"),
            TcpError::Wire(e) => write!(f, "transport decode error: {e}"),
            TcpError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TcpError::Timeout => write!(f, "peer stalled mid-frame (read timeout)"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<io::Error> for TcpError {
    fn from(e: io::Error) -> TcpError {
        TcpError::Io(e)
    }
}

impl From<WireError> for TcpError {
    fn from(e: WireError) -> TcpError {
        TcpError::Wire(e)
    }
}

impl TcpError {
    /// True for failures worth retrying: timeouts, resets, interrupted
    /// connects. Connection refused is explicitly NOT transient — a
    /// refused result dispatch is the paper's passive-termination signal
    /// (Section 2.8), and retrying it would keep dead queries alive.
    pub fn is_transient(&self) -> bool {
        match self {
            TcpError::Io(e) => !matches!(e.kind(), io::ErrorKind::ConnectionRefused),
            TcpError::Timeout => true,
            TcpError::Wire(_) | TcpError::FrameTooLarge(_) => false,
        }
    }
}

/// Bounded-retry policy for [`LinkPool::send_retrying`]: exponential
/// backoff starting at `base_backoff`, doubling per attempt.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Extra attempts after the first (0 = plain [`LinkPool::send`]).
    pub max_retries: u32,
    /// Sleep before the first retry; doubles each subsequent retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
        }
    }
}

/// Runs `op` under `policy`, sleeping between attempts. Only transient
/// errors are retried; `on_retry(attempt)` fires before each retry
/// (attempt numbering starts at 1).
fn with_retries<T>(
    policy: RetryPolicy,
    mut on_retry: impl FnMut(u32),
    mut op: impl FnMut() -> Result<T, TcpError>,
) -> Result<T, TcpError> {
    let mut backoff = policy.base_backoff;
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                attempt += 1;
                on_retry(attempt);
                std::thread::sleep(backoff);
                backoff *= 2;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One message encoded for the wire: the big-endian length prefix and
/// the payload in one buffer, so a single `write_all` puts the whole
/// frame on the link.
pub struct Frame {
    bytes: Vec<u8>,
}

impl Frame {
    /// Encodes `msg`, failing with [`TcpError::FrameTooLarge`] past the
    /// 16 MiB frame limit.
    pub fn encode(msg: &Message) -> Result<Frame, TcpError> {
        let mut bytes = Vec::with_capacity(128);
        bytes.extend_from_slice(&[0; PREFIX]);
        msg.encode(&mut bytes);
        let len =
            u32::try_from(bytes.len() - PREFIX).map_err(|_| TcpError::FrameTooLarge(u32::MAX))?;
        if len > MAX_FRAME {
            return Err(TcpError::FrameTooLarge(len));
        }
        bytes[..PREFIX].copy_from_slice(&len.to_be_bytes());
        Ok(Frame { bytes })
    }

    /// The payload's length: the message's encoded size, which is what
    /// the wire meter counts.
    pub fn payload_len(&self) -> usize {
        self.bytes.len() - PREFIX
    }

    /// Flips one payload byte and leaves the length prefix intact — the
    /// fault-injection path. The receiver reads the whole frame, fails
    /// to decode it and drops it, and the link carries on.
    pub fn corrupt(&mut self) {
        let mid = PREFIX + self.payload_len() / 2;
        if let Some(byte) = self.bytes.get_mut(mid) {
            *byte ^= 0xff;
        }
    }
}

/// Sends one message over a fresh connection: connect, write one frame,
/// close. Daemons send over a [`LinkPool`] instead.
pub fn send_to<A: ToSocketAddrs>(addr: A, msg: &Message) -> Result<(), TcpError> {
    let frame = Frame::encode(msg)?;
    TcpStream::connect(addr)?.write_all(&frame.bytes)?;
    Ok(())
}

/// One sender's long-lived links: a `TcpStream` per peer address, opened
/// on first use with `TCP_NODELAY` set. A pool belongs to one sending
/// thread, so a socket is never shared and each link's frames keep the
/// order they were sent in.
#[derive(Default)]
pub struct LinkPool {
    links: HashMap<SocketAddr, TcpStream>,
}

impl LinkPool {
    /// An empty pool.
    pub fn new() -> LinkPool {
        LinkPool::default()
    }

    /// Writes `frame` to `addr` over its pooled link. A link whose peer
    /// has closed or reset it is replaced by a fresh connection first, so
    /// a send to a closed endpoint fails with connection refused — the
    /// passive-termination signal. A failed write drops the link; the
    /// next send reconnects.
    pub fn send(&mut self, addr: SocketAddr, frame: &Frame) -> Result<(), TcpError> {
        let mut stream = match self.links.remove(&addr) {
            Some(stream) if peer_open(&stream) => stream,
            _ => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true)?;
                stream
            }
        };
        stream.write_all(&frame.bytes)?;
        self.links.insert(addr, stream);
        Ok(())
    }

    /// [`LinkPool::send`] under `policy`: a transient failure reconnects
    /// and retries with backoff, `on_retry(attempt)` firing before each
    /// retry. Connection refused fails at once (passive termination).
    pub fn send_retrying(
        &mut self,
        addr: SocketAddr,
        frame: &Frame,
        policy: RetryPolicy,
        on_retry: impl FnMut(u32),
    ) -> Result<(), TcpError> {
        with_retries(policy, on_retry, || self.send(addr, frame))
    }
}

/// True while nothing is readable on a pooled link. Readers never write
/// back, so a readable link means EOF or a reset: the peer is gone.
fn peer_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let idle = matches!(stream.peek(&mut [0u8; 1]),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    idle && stream.set_nonblocking(false).is_ok()
}

/// The read side of one link. Waiting for a frame's first byte is
/// unbounded; once it arrives, the rest of the frame must follow within
/// `stall_bound`. The socket's read timeout is armed only when a read
/// must block mid-frame, so a link whose frames arrive whole costs no
/// extra system calls.
struct LinkReader {
    stream: BufReader<SharedStream>,
    stall_bound: Duration,
    armed: bool,
}

/// An accepted link's socket, shared by its reader and the endpoint's
/// registry, which only ever shuts it down.
struct SharedStream(Arc<TcpStream>);

impl Read for SharedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self.0).read(buf)
    }
}

impl LinkReader {
    fn new(stream: Arc<TcpStream>, stall_bound: Duration) -> LinkReader {
        LinkReader {
            stream: BufReader::with_capacity(64 * 1024, SharedStream(stream)),
            stall_bound,
            armed: false,
        }
    }

    /// Reads the next frame. EOF before a frame's first byte is an
    /// [`io::ErrorKind::UnexpectedEof`] I/O error; a stall mid-frame is
    /// the transient [`TcpError::Timeout`].
    fn read_frame(&mut self) -> Result<Message, TcpError> {
        self.arm(false)?;
        loop {
            match self.stream.fill_buf() {
                Ok([]) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
                Ok(_) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let mut len_bytes = [0u8; PREFIX];
        self.read_exact(&mut len_bytes)?;
        let len = u32::from_be_bytes(len_bytes);
        if len > MAX_FRAME {
            return Err(TcpError::FrameTooLarge(len));
        }
        let mut payload = vec![0u8; len as usize];
        self.read_exact(&mut payload)?;
        Ok(decode_message(&payload)?)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), TcpError> {
        if self.stream.buffer().len() < buf.len() {
            self.arm(true)?;
        }
        self.stream.read_exact(buf).map_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                TcpError::Timeout
            } else {
                TcpError::Io(e)
            }
        })
    }

    /// Sets the socket's read timeout to the stall bound (`on`) or to
    /// none, skipping the system call when it is already so.
    fn arm(&mut self, on: bool) -> io::Result<()> {
        if self.armed != on {
            let timeout = on.then_some(self.stall_bound);
            self.stream.get_ref().0.set_read_timeout(timeout)?;
            self.armed = on;
        }
        Ok(())
    }
}

/// An endpoint's accepted links by id, each with its reader thread, so
/// [`TcpEndpoint::close`] can shut every link down and join its reader.
type Links = Arc<Mutex<HashMap<u64, (Arc<TcpStream>, JoinHandle<()>)>>>;

/// A listening endpoint: accepts links, decodes their frames, and
/// delivers messages on a channel. Dropping (or calling
/// [`close`](TcpEndpoint::close)) stops the listener and closes every
/// link — this is how a user-site terminates a query passively.
pub struct TcpEndpoint {
    addr: SocketAddr,
    rx: Receiver<(Message, Instant)>,
    /// Decoded frames enqueued but not yet received — the inbound queue
    /// depth a daemon poll loop reports as backpressure.
    depth: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    links: Links,
}

impl TcpEndpoint {
    /// Binds a listener (use port 0 for an ephemeral port) and starts the
    /// accept loop.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TcpEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let depth = Arc::new(AtomicUsize::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let links: Links = Arc::default();
        let accept_thread = {
            let (depth, shutdown, links) = (
                Arc::clone(&depth),
                Arc::clone(&shutdown),
                Arc::clone(&links),
            );
            std::thread::Builder::new()
                .name(format!("webdis-accept-{addr}"))
                .spawn(move || accept_loop(listener, tx, depth, shutdown, links))?
        };
        Ok(TcpEndpoint {
            addr,
            rx,
            depth,
            shutdown,
            accept_thread: Some(accept_thread),
            links,
        })
    }

    /// The bound address (with the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Receives the next message, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Message, RecvTimeoutError> {
        self.recv_timeout_queued(timeout).map(|(msg, _)| msg)
    }

    /// Like [`recv_timeout`](TcpEndpoint::recv_timeout), but also
    /// reports how long the message sat in the inbound queue between
    /// frame decode and this receive — the wall-clock queue wait behind
    /// the `queue_us` stage span.
    pub fn recv_timeout_queued(
        &self,
        timeout: Duration,
    ) -> Result<(Message, Duration), RecvTimeoutError> {
        let (msg, enqueued_at) = self.rx.recv_timeout(timeout)?;
        self.depth.fetch_sub(1, Ordering::SeqCst);
        Ok((msg, enqueued_at.elapsed()))
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        let (msg, _) = self.rx.try_recv().ok()?;
        self.depth.fetch_sub(1, Ordering::SeqCst);
        Some(msg)
    }

    /// Decoded messages currently waiting in the inbound queue.
    pub fn pending(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Stops accepting connections, shuts down every accepted link and
    /// joins the listener and reader threads. A peer's next send to this
    /// endpoint — over a pooled link or a fresh connection — fails with a
    /// connection error: the passive termination signal.
    pub fn close(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The listener is gone, so no link joins the registry any more.
        let links = std::mem::take(&mut *self.links.lock().unwrap_or_else(PoisonError::into_inner));
        for (stream, _) in links.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, reader) in links.into_values() {
            let _ = reader.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

fn accept_loop(
    listener: TcpListener,
    tx: Sender<(Message, Instant)>,
    depth: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    links: Links,
) {
    let mut next_id = 0u64;
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => Arc::new(s),
            Err(_) => {
                // Persistent accept errors (EMFILE and friends) would
                // otherwise busy-spin this thread at 100% CPU.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let id = next_id;
        next_id += 1;
        let (tx, depth, registry, handle) = (
            tx.clone(),
            Arc::clone(&depth),
            Arc::clone(&links),
            Arc::clone(&stream),
        );
        // Each link gets its own reader thread, so a stalled sender
        // cannot head-of-line-block other peers. The registry stays
        // locked across the spawn, so the reader's exit-time removal
        // always finds its entry.
        let mut map = links.lock().expect("link registry poisoned");
        let reader = std::thread::Builder::new()
            .name("webdis-link".into())
            .spawn(move || {
                read_link(LinkReader::new(stream, FRAME_READ_TIMEOUT), &tx, &depth);
                registry.lock().expect("link registry poisoned").remove(&id);
            });
        if let Ok(reader) = reader {
            map.insert(id, (handle, reader));
        }
    }
}

/// Delivers one link's frames until it closes, stalls mid-frame or
/// sends a bad length prefix. A frame that fails to decode is dropped
/// and the link stays open: its length prefix was intact, so the next
/// frame starts in the right place. A long-running daemon must survive
/// garbage and slowloris input.
fn read_link(mut link: LinkReader, tx: &Sender<(Message, Instant)>, depth: &AtomicUsize) {
    loop {
        match link.read_frame() {
            Ok(msg) => {
                // Raise depth before the send so a receiver that
                // dequeues immediately never observes an undercount.
                depth.fetch_add(1, Ordering::SeqCst);
                if tx.send((msg, Instant::now())).is_err() {
                    depth.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
            }
            Err(TcpError::Wire(_)) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{FetchRequest, FetchResponse};
    use crate::wire::encode_message;
    use webdis_model::Url;

    fn fetch_msg(path: &str) -> Message {
        Message::Fetch(FetchRequest {
            url: Url::parse(&format!("http://h{path}")).unwrap(),
            reply_host: "user".into(),
            reply_port: 9,
        })
    }

    fn frame(path: &str) -> Frame {
        Frame::encode(&fetch_msg(path)).unwrap()
    }

    fn accepted_links(ep: &TcpEndpoint) -> usize {
        ep.links.lock().unwrap().len()
    }

    #[test]
    fn round_trip_over_loopback() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let msg = fetch_msg("/x");
        send_to(ep.local_addr(), &msg).unwrap();
        let got = ep.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn frame_payload_is_the_encoded_message() {
        let msg = fetch_msg("/x");
        let frame = Frame::encode(&msg).unwrap();
        let payload = encode_message(&msg);
        assert_eq!(frame.payload_len(), payload.len());
        assert_eq!(&frame.bytes[PREFIX..], &payload[..]);
        assert_eq!(frame.bytes[..PREFIX], (payload.len() as u32).to_be_bytes());
    }

    #[test]
    fn thousand_frames_on_one_link_arrive_in_order() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut pool = LinkPool::new();
        for i in 0..1000 {
            pool.send(ep.local_addr(), &frame(&format!("/doc{i}")))
                .unwrap();
        }
        for i in 0..1000 {
            let got = ep.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got, fetch_msg(&format!("/doc{i}")), "frame {i}");
        }
        assert_eq!(accepted_links(&ep), 1, "one link carried every frame");
    }

    #[test]
    fn large_message() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let big = "x".repeat(1 << 20);
        let msg = Message::FetchReply(FetchResponse {
            url: Url::parse("http://h/big").unwrap(),
            html: Some(big),
        });
        let mut pool = LinkPool::new();
        pool.send(ep.local_addr(), &Frame::encode(&msg).unwrap())
            .unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
    }

    #[test]
    fn queued_receive_reports_wait_and_depth() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut pool = LinkPool::new();
        for i in 0..3 {
            pool.send(ep.local_addr(), &frame(&format!("/doc{i}")))
                .unwrap();
        }
        // Wait until all three frames have been decoded and enqueued.
        let start = std::time::Instant::now();
        while ep.pending() < 3 && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(ep.pending(), 3);
        std::thread::sleep(Duration::from_millis(20));
        let (_, queued) = ep.recv_timeout_queued(Duration::from_secs(5)).unwrap();
        assert!(
            queued >= Duration::from_millis(20),
            "messages sat at least the sleep: {queued:?}"
        );
        assert_eq!(ep.pending(), 2);
        ep.try_recv().unwrap();
        ep.try_recv().unwrap();
        assert_eq!(ep.pending(), 0);
    }

    #[test]
    fn send_to_closed_endpoint_fails() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        ep.close();
        // The listener is gone: connection refused (the passive
        // termination signal the paper relies on).
        assert!(send_to(addr, &fetch_msg("/x")).is_err());
    }

    #[test]
    fn first_pooled_send_after_close_fails() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let mut pool = LinkPool::new();
        pool.send(addr, &frame("/before")).unwrap();
        assert_eq!(
            ep.recv_timeout(Duration::from_secs(5)).unwrap(),
            fetch_msg("/before")
        );
        ep.close();
        // The pooled link is closed under the sender: its very next send
        // must fail, not vanish into a dead socket — and refused is
        // never retried.
        let mut retries = 0;
        let err = pool
            .send_retrying(addr, &frame("/after"), RetryPolicy::default(), |_| {
                retries += 1
            })
            .unwrap_err();
        assert!(!err.is_transient(), "{err}");
        assert_eq!(retries, 0, "passive termination must not be retried");
        assert!(pool.send(addr, &frame("/again")).is_err());
    }

    #[test]
    fn close_is_idempotent() {
        let mut ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        ep.close();
        ep.close();
    }

    #[test]
    fn slow_sender_does_not_block_fast_sender() {
        // Regression: a connection that sends only the length prefix and
        // then stalls used to hold the accept thread inside read_frame
        // for the full 10 s read timeout, head-of-line-blocking everyone.
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let addr = ep.local_addr();
        let stalled = TcpStream::connect(addr).unwrap();
        (&stalled).write_all(&64u32.to_be_bytes()).unwrap();
        // ... and never sends the payload.
        std::thread::sleep(Duration::from_millis(100));
        let msg = fetch_msg("/fast");
        send_to(addr, &msg).unwrap();
        let got = ep
            .recv_timeout(Duration::from_secs(1))
            .expect("fast sender must not wait behind the stalled one");
        assert_eq!(got, msg);
        drop(stalled);
    }

    #[test]
    fn stall_mid_frame_surfaces_as_transient_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Slowloris peers: one stalls after the length prefix, one after
        // the first byte of it.
        for partial in [&64u32.to_be_bytes()[..], &[0u8][..]] {
            let stalled = TcpStream::connect(addr).unwrap();
            (&stalled).write_all(partial).unwrap();
            let (conn, _) = listener.accept().unwrap();
            let err = LinkReader::new(Arc::new(conn), Duration::from_millis(50))
                .read_frame()
                .unwrap_err();
            assert!(matches!(err, TcpError::Timeout), "{err}");
            assert!(err.is_transient(), "a stalled peer is worth retrying");
        }
    }

    #[test]
    fn idle_link_outlives_the_stall_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut pool = LinkPool::new();
            pool.send(addr, &frame("/first")).unwrap();
            // Idle for three stall bounds between frames.
            std::thread::sleep(Duration::from_millis(150));
            pool.send(addr, &frame("/second")).unwrap();
            pool
        });
        let (conn, _) = listener.accept().unwrap();
        let mut link = LinkReader::new(Arc::new(conn), Duration::from_millis(50));
        assert_eq!(link.read_frame().unwrap(), fetch_msg("/first"));
        assert_eq!(link.read_frame().unwrap(), fetch_msg("/second"));
        drop(sender.join().unwrap());
        assert!(
            matches!(link.read_frame(), Err(TcpError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof),
            "a closed link reads as EOF"
        );
    }

    #[test]
    fn corrupted_raw_frame_is_dropped_not_fatal() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        // Encode a real message, then flip a byte mid-payload — the
        // receiver's decode path must reject it and survive.
        let mut damaged = frame("/x");
        damaged.corrupt();
        let mut pool = LinkPool::new();
        pool.send(ep.local_addr(), &damaged).unwrap();
        // The same link still delivers; the damaged frame is gone.
        let msg = fetch_msg("/ok");
        pool.send(ep.local_addr(), &frame("/ok")).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
        assert!(ep.try_recv().is_none(), "corrupt frame must not deliver");
        assert_eq!(accepted_links(&ep), 1, "the link survived the bad frame");
    }

    #[test]
    fn oversized_length_prefix_closes_the_link() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        // The reader gives up on the link: the sender sees EOF.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0);
        // The endpoint keeps serving other links.
        send_to(ep.local_addr(), &fetch_msg("/ok")).unwrap();
        assert_eq!(
            ep.recv_timeout(Duration::from_secs(5)).unwrap(),
            fetch_msg("/ok")
        );
    }

    #[test]
    fn transient_errors_are_retried_with_backoff() {
        let mut failures_left = 2;
        let mut retries = Vec::new();
        let out = with_retries(
            RetryPolicy {
                max_retries: 3,
                base_backoff: Duration::from_millis(1),
            },
            |attempt| retries.push(attempt),
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(TcpError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "connect timed out",
                    )))
                } else {
                    Ok(())
                }
            },
        );
        assert!(out.is_ok());
        assert_eq!(retries, vec![1, 2]);
    }

    #[test]
    fn retries_are_bounded() {
        let mut attempts = 0;
        let out: Result<(), _> = with_retries(
            RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(1),
            },
            |_| {},
            || {
                attempts += 1;
                Err(TcpError::Io(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "reset",
                )))
            },
        );
        assert!(out.is_err());
        assert_eq!(attempts, 3, "initial try + 2 retries");
    }

    #[test]
    fn connection_refused_is_never_retried() {
        let mut attempts = 0;
        let out: Result<(), _> = with_retries(
            RetryPolicy::default(),
            |_| panic!("refused must not trigger a retry"),
            || {
                attempts += 1;
                Err(TcpError::Io(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "refused",
                )))
            },
        );
        assert!(out.is_err());
        assert_eq!(attempts, 1);
    }

    #[test]
    fn garbage_frames_are_dropped_not_fatal() {
        let ep = TcpEndpoint::bind("127.0.0.1:0").unwrap();
        // Send raw garbage (valid length prefix, invalid payload).
        let mut stream = TcpStream::connect(ep.local_addr()).unwrap();
        stream.write_all(&3u32.to_be_bytes()).unwrap();
        stream.write_all(&[0xff, 0xff, 0xff]).unwrap();
        drop(stream);
        // Endpoint still works afterwards.
        let msg = fetch_msg("/ok");
        send_to(ep.local_addr(), &msg).unwrap();
        assert_eq!(ep.recv_timeout(Duration::from_secs(5)).unwrap(), msg);
    }
}
