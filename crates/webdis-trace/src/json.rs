//! The workspace's one JSON codec, and the JSON-lines form of
//! [`TraceRecord`]s built on it.
//!
//! Every JSON artifact WEBDIS reads or writes goes through this module:
//! trace lines, the monitor's `/status`, `chaos-repro.json` and the
//! `BENCH_*.json` files. The codec covers exactly what those artifacts
//! need — objects, arrays, strings, booleans and unsigned integers —
//! and nothing else (no floats, no negatives, no `null`).
//!
//! * [`parse`] reads a whole document into a [`Value`]. It accepts JSON
//!   whitespace and the standard string escapes, copies unescaped runs
//!   by slice (so decoding is linear), and refuses nesting deeper than
//!   [`MAX_DEPTH`] instead of recursing without bound.
//! * [`Value::req`] and [`Value::opt`] read one field of an object as a
//!   typed value; integers are range-checked into the requested width,
//!   so `"port":70000` is an error rather than a silent 4464.
//! * [`string`] is the one string escaper, [`ObjectWriter`] writes an
//!   object field by field in call order (which is how the artifacts
//!   keep their byte-exact key order) and [`array`] writes an array.
//!
//! A trace record is one flat object per line; event-specific payload
//! fields are flattened next to the common stamp fields, so the output
//! greps well:
//!
//! ```text
//! {"time_us":1532,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":1,"hop":1,"event":"query_sent","to_site":"n2.test","nodes":1}
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{QueryId, TermReason, TraceEvent, TraceRecord};

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// artifacts nest at most six levels; the bound keeps a hostile
/// document (say, a remote `/status` body of 200,000 `[`) from
/// overflowing the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their keys sorted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An unsigned integer.
    Num(u64),
    /// `true` or `false`.
    Bool(bool),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

/// Parses one JSON document; the whole of `text` must be consumed.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Escapes `s` into a JSON string literal (with quotes).
pub fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `items` as a JSON array, `item` writing each element.
pub fn array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// Writes one JSON object into a buffer, field by field, in call order.
/// [`end`](ObjectWriter::end) closes it.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes `"key":` and hands back the buffer; the caller must write
    /// exactly one JSON value next.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        string(self.out, key);
        self.out.push(':');
        self.out
    }

    /// Writes a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        string(self.key(key), value);
        self
    }

    /// Writes an unsigned-integer field.
    pub fn num(&mut self, key: &str, value: impl Into<u64>) -> &mut Self {
        let _ = write!(self.key(key), "{}", value.into());
        self
    }

    /// Writes a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

impl Value {
    /// Renders compact JSON, object keys in sorted order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Str(s) => string(out, s),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Arr(items) => array(out, items, |out, item| item.write(out)),
            Value::Obj(map) => {
                let mut obj = ObjectWriter::new(out);
                for (key, value) in map {
                    value.write(obj.key(key));
                }
                obj.end();
            }
        }
    }

    /// This value as a `T`; an error names the expected type.
    pub fn to<'a, T: FromValue<'a>>(&'a self) -> Result<T, String> {
        T::from_value(self).ok_or_else(|| {
            let found = match self {
                Value::Str(_) => "a string".to_string(),
                Value::Num(n) => n.to_string(),
                Value::Bool(b) => b.to_string(),
                Value::Arr(_) => "an array".to_string(),
                Value::Obj(_) => "an object".to_string(),
            };
            format!("expected {}, found {found}", T::WHAT)
        })
    }

    /// Field `key` of this object as a `T`, or `None` when the field is
    /// absent. An error when `self` is not an object or the field has
    /// another type or does not fit in `T`.
    pub fn opt<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<Option<T>, String> {
        let Value::Obj(map) = self else {
            return Err(format!("expected an object holding {key:?}"));
        };
        map.get(key)
            .map(|v| v.to().map_err(|e| format!("field {key:?}: {e}")))
            .transpose()
    }

    /// Field `key` of this object as a `T`; absence is an error too.
    pub fn req<'a, T: FromValue<'a>>(&'a self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing field {key:?}"))
    }
}

/// The types [`Value::to`], [`Value::opt`] and [`Value::req`] read:
/// `u64`, `u32`, `u16`, `usize`, `bool`, `String`, `&str`, `&[Value]`
/// (an array) and `&BTreeMap<String, Value>` (an object).
pub trait FromValue<'a>: Sized {
    /// The type's name in error messages.
    const WHAT: &'static str;
    /// `None` when `v` has another type or is out of range.
    fn from_value(v: &'a Value) -> Option<Self>;
}

macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl FromValue<'_> for $t {
            const WHAT: &'static str = stringify!($t);
            fn from_value(v: &Value) -> Option<$t> {
                match v {
                    Value::Num(n) => <$t>::try_from(*n).ok(),
                    _ => None,
                }
            }
        }
    )*};
}

from_num!(u64, u32, u16, usize);

impl FromValue<'_> for bool {
    const WHAT: &'static str = "a boolean";
    fn from_value(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'a> FromValue<'a> for &'a str {
    const WHAT: &'static str = "a string";
    fn from_value(v: &'a Value) -> Option<&'a str> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl FromValue<'_> for String {
    const WHAT: &'static str = "a string";
    fn from_value(v: &Value) -> Option<String> {
        <&str>::from_value(v).map(str::to_string)
    }
}

impl<'a> FromValue<'a> for &'a [Value] {
    const WHAT: &'static str = "an array";
    fn from_value(v: &'a Value) -> Option<&'a [Value]> {
        match v {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

impl<'a> FromValue<'a> for &'a BTreeMap<String, Value> {
    const WHAT: &'static str = "an object";
    fn from_value(v: &'a Value) -> Option<&'a BTreeMap<String, Value>> {
        match v {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    /// One value inside `depth` enclosing arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Arr(items))
            }
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.seq(b'{', b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    map.insert(key, p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Obj(map))
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'0') => {
                // JSON forbids leading zeros: `0` stands alone.
                self.pos += 1;
                Ok(Value::Num(0))
            }
            Some(b'1'..=b'9') => {
                let mut n: u64 = 0;
                while let Some(d @ b'0'..=b'9') = self.peek() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d - b'0')))
                        .ok_or_else(|| self.err("number overflows u64"))?;
                    self.pos += 1;
                }
                Ok(Value::Num(n))
            }
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("bad literal"))
        }
    }

    /// `open item (, item)* close`, or an empty `open close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected ',' or {:?}", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one slice; all three are ASCII, so the run ends on
            // a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character an escape stands for, just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let code = if (0xd800..0xdc00).contains(&high) {
                    // A UTF-16 surrogate pair, such as `\ud83d\ude00`.
                    if !self.text.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?
            }
            _ => return Err(self.err("bad escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let code = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .and_then(|hex| {
                hex.iter()
                    .try_fold(0, |acc, &d| Some(acc * 16 + char::from(d).to_digit(16)?))
            })
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }
}

/// Encodes one record as a single JSON object (no trailing newline).
pub fn encode_record(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(128);
    let mut w = ObjectWriter::new(&mut out);
    w.num("time_us", r.time_us);
    w.str("site", &r.site);
    if let Some(id) = &r.query {
        w.str("user", &id.user);
        w.str("query_host", &id.host);
        w.num("query_port", id.port);
        w.num("query_num", id.query_num);
    }
    if let Some(hop) = r.hop {
        w.num("hop", hop);
    }
    w.str("event", r.event.name());
    match &r.event {
        TraceEvent::QuerySent { to_site, nodes } => {
            w.str("to_site", to_site);
            w.num("nodes", *nodes);
        }
        TraceEvent::QueryRecv { nodes } => {
            w.num("nodes", *nodes);
        }
        TraceEvent::EvalStart { node, stage } => {
            w.str("node", node);
            w.num("stage", *stage);
        }
        TraceEvent::EvalFinish {
            node,
            stage,
            rows,
            answered,
            span_us,
        } => {
            w.str("node", node);
            w.num("stage", *stage);
            w.num("rows", *rows);
            w.bool("answered", *answered);
            w.num("span_us", *span_us);
        }
        TraceEvent::StageTransition {
            node,
            from_stage,
            to_stage,
        } => {
            w.str("node", node);
            w.num("from_stage", *from_stage);
            w.num("to_stage", *to_stage);
        }
        TraceEvent::LogDuplicate { node, exact } => {
            w.str("node", node);
            w.bool("exact", *exact);
        }
        TraceEvent::LogRewrite { node } => {
            w.str("node", node);
        }
        TraceEvent::ChtAdd { node } | TraceEvent::ChtDelete { node } => {
            w.str("node", node);
        }
        TraceEvent::DocFetch {
            url,
            cache_hit,
            content_version,
        } => {
            w.str("url", url);
            w.bool("cache_hit", *cache_hit);
            w.num("content_version", *content_version);
        }
        TraceEvent::Purge { records } => {
            w.num("records", *records);
        }
        TraceEvent::Termination { reason } => {
            w.str("reason", reason.name());
        }
        TraceEvent::MessageSent { kind, to, bytes } => {
            w.str("kind", kind);
            w.str("to", to);
            w.num("bytes", *bytes);
        }
        TraceEvent::MessageDropped {
            kind,
            to,
            bytes,
            reason,
        } => {
            w.str("kind", kind);
            w.str("to", to);
            w.num("bytes", *bytes);
            w.str("reason", reason);
        }
        TraceEvent::MessageDuplicated { kind, to, bytes }
        | TraceEvent::MessageCorrupted { kind, to, bytes } => {
            w.str("kind", kind);
            w.str("to", to);
            w.num("bytes", *bytes);
        }
        TraceEvent::EntryExpired { node } => {
            w.str("node", node);
        }
        TraceEvent::SendRetried { kind, to, attempt } => {
            w.str("kind", kind);
            w.str("to", to);
            w.num("attempt", *attempt);
        }
        TraceEvent::QueryShed { nodes } => {
            w.num("nodes", *nodes);
        }
        TraceEvent::CacheHit {
            node,
            subsumed,
            rows,
        } => {
            w.str("node", node);
            w.bool("subsumed", *subsumed);
            w.num("rows", *rows);
        }
        TraceEvent::CacheMiss { node } => {
            w.str("node", node);
        }
        TraceEvent::CacheEvict {
            node,
            bytes,
            resident_bytes,
        } => {
            w.str("node", node);
            w.num("bytes", *bytes);
            w.num("resident_bytes", *resident_bytes);
        }
        TraceEvent::StageSpans {
            queue_us,
            parse_us,
            log_us,
            cache_us,
            eval_us,
            eval_probe_us,
            eval_scan_us,
            build_us,
            forward_us,
        } => {
            w.num("queue_us", *queue_us);
            w.num("parse_us", *parse_us);
            w.num("log_us", *log_us);
            w.num("cache_us", *cache_us);
            w.num("eval_us", *eval_us);
            w.num("eval_probe_us", *eval_probe_us);
            w.num("eval_scan_us", *eval_scan_us);
            w.num("build_us", *build_us);
            w.num("forward_us", *forward_us);
        }
        TraceEvent::AlertFired {
            rule,
            value_milli,
            threshold_milli,
        } => {
            w.str("rule", rule);
            w.num("value_milli", *value_milli);
            w.num("threshold_milli", *threshold_milli);
        }
        TraceEvent::AlertResolved { rule, value_milli } => {
            w.str("rule", rule);
            w.num("value_milli", *value_milli);
        }
        TraceEvent::WebMutation {
            op,
            url,
            site_version,
        } => {
            w.str("op", op);
            w.str("url", url);
            w.num("site_version", *site_version);
        }
        TraceEvent::DeadLink { node, version } => {
            w.str("node", node);
            w.num("version", *version);
        }
    }
    w.end();
    out
}

/// Decodes one line previously produced by [`encode_record`].
pub fn decode_record(line: &str) -> Result<TraceRecord, String> {
    let v = parse(line)?;
    let query = match v.opt("query_num")? {
        Some(query_num) => Some(QueryId {
            user: v.req("user")?,
            host: v.req("query_host")?,
            port: v.req("query_port")?,
            query_num,
        }),
        None => None,
    };
    let event = match v.req::<&str>("event")? {
        "query_sent" => TraceEvent::QuerySent {
            to_site: v.req("to_site")?,
            nodes: v.req("nodes")?,
        },
        "query_recv" => TraceEvent::QueryRecv {
            nodes: v.req("nodes")?,
        },
        "eval_start" => TraceEvent::EvalStart {
            node: v.req("node")?,
            stage: v.req("stage")?,
        },
        "eval_finish" => TraceEvent::EvalFinish {
            node: v.req("node")?,
            stage: v.req("stage")?,
            rows: v.req("rows")?,
            answered: v.req("answered")?,
            span_us: v.req("span_us")?,
        },
        "stage_transition" => TraceEvent::StageTransition {
            node: v.req("node")?,
            from_stage: v.req("from_stage")?,
            to_stage: v.req("to_stage")?,
        },
        "log_duplicate" => TraceEvent::LogDuplicate {
            node: v.req("node")?,
            exact: v.req("exact")?,
        },
        "log_rewrite" => TraceEvent::LogRewrite {
            node: v.req("node")?,
        },
        "cht_add" => TraceEvent::ChtAdd {
            node: v.req("node")?,
        },
        "cht_delete" => TraceEvent::ChtDelete {
            node: v.req("node")?,
        },
        "doc_fetch" => TraceEvent::DocFetch {
            url: v.req("url")?,
            cache_hit: v.req("cache_hit")?,
            // Absent in traces written before the living web.
            content_version: v.opt("content_version")?.unwrap_or(0),
        },
        "purge" => TraceEvent::Purge {
            records: v.req("records")?,
        },
        "termination" => TraceEvent::Termination {
            reason: match v.req::<&str>("reason")? {
                "passive" => TermReason::Passive,
                "cht-complete" => TermReason::ChtComplete,
                "ack-complete" => TermReason::AckComplete,
                "expired" => TermReason::Expired,
                "shed" => TermReason::Shed,
                other => return Err(format!("unknown termination reason {other:?}")),
            },
        },
        "message_sent" => TraceEvent::MessageSent {
            kind: v.req("kind")?,
            to: v.req("to")?,
            bytes: v.req("bytes")?,
        },
        "message_dropped" => TraceEvent::MessageDropped {
            kind: v.req("kind")?,
            to: v.req("to")?,
            bytes: v.req("bytes")?,
            reason: v.req("reason")?,
        },
        "message_duplicated" => TraceEvent::MessageDuplicated {
            kind: v.req("kind")?,
            to: v.req("to")?,
            bytes: v.req("bytes")?,
        },
        "message_corrupted" => TraceEvent::MessageCorrupted {
            kind: v.req("kind")?,
            to: v.req("to")?,
            bytes: v.req("bytes")?,
        },
        "entry_expired" => TraceEvent::EntryExpired {
            node: v.req("node")?,
        },
        "send_retried" => TraceEvent::SendRetried {
            kind: v.req("kind")?,
            to: v.req("to")?,
            attempt: v.req("attempt")?,
        },
        "query_shed" => TraceEvent::QueryShed {
            nodes: v.req("nodes")?,
        },
        "cache_hit" => TraceEvent::CacheHit {
            node: v.req("node")?,
            subsumed: v.req("subsumed")?,
            rows: v.req("rows")?,
        },
        "cache_miss" => TraceEvent::CacheMiss {
            node: v.req("node")?,
        },
        "cache_evict" => TraceEvent::CacheEvict {
            node: v.req("node")?,
            bytes: v.req("bytes")?,
            resident_bytes: v.req("resident_bytes")?,
        },
        "stage_spans" => TraceEvent::StageSpans {
            // Absent in traces written before queue-wait attribution.
            queue_us: v.opt("queue_us")?.unwrap_or(0),
            parse_us: v.req("parse_us")?,
            log_us: v.req("log_us")?,
            // Absent in traces written before the answer cache.
            cache_us: v.opt("cache_us")?.unwrap_or(0),
            eval_us: v.req("eval_us")?,
            // Absent in traces written before probe-vs-scan attribution.
            eval_probe_us: v.opt("eval_probe_us")?.unwrap_or(0),
            eval_scan_us: v.opt("eval_scan_us")?.unwrap_or(0),
            build_us: v.req("build_us")?,
            forward_us: v.req("forward_us")?,
        },
        "alert_fired" => TraceEvent::AlertFired {
            rule: v.req("rule")?,
            value_milli: v.req("value_milli")?,
            threshold_milli: v.req("threshold_milli")?,
        },
        "alert_resolved" => TraceEvent::AlertResolved {
            rule: v.req("rule")?,
            value_milli: v.req("value_milli")?,
        },
        "web_mutation" => TraceEvent::WebMutation {
            op: v.req("op")?,
            url: v.req("url")?,
            site_version: v.req("site_version")?,
        },
        "dead_link" => TraceEvent::DeadLink {
            node: v.req("node")?,
            version: v.req("version")?,
        },
        other => return Err(format!("unknown event {other:?}")),
    };
    Ok(TraceRecord {
        time_us: v.req("time_us")?,
        site: v.req("site")?,
        query,
        hop: v.opt("hop")?,
        event,
    })
}

/// Decodes a whole JSONL document (blank lines skipped), failing on the
/// first malformed line with its 1-based line number.
pub fn decode_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(decode_record(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qid() -> QueryId {
        QueryId {
            user: "alice".into(),
            host: "user.test".into(),
            port: 9900,
            query_num: 7,
        }
    }

    fn all_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::QuerySent {
                to_site: "n2.test".into(),
                nodes: 3,
            },
            TraceEvent::QueryRecv { nodes: 3 },
            TraceEvent::EvalStart {
                node: "http://n2.test/".into(),
                stage: 0,
            },
            TraceEvent::EvalFinish {
                node: "http://n2.test/".into(),
                stage: 0,
                rows: 4,
                answered: true,
                span_us: 1_250,
            },
            TraceEvent::StageTransition {
                node: "http://n4.test/".into(),
                from_stage: 0,
                to_stage: 1,
            },
            TraceEvent::LogDuplicate {
                node: "http://n4.test/".into(),
                exact: false,
            },
            TraceEvent::LogRewrite {
                node: "http://n4.test/".into(),
            },
            TraceEvent::ChtAdd {
                node: "http://n5.test/".into(),
            },
            TraceEvent::ChtDelete {
                node: "http://n5.test/".into(),
            },
            TraceEvent::DocFetch {
                url: "http://n1.test/".into(),
                cache_hit: false,
                content_version: 3,
            },
            TraceEvent::Purge { records: 12 },
            TraceEvent::Termination {
                reason: TermReason::ChtComplete,
            },
            TraceEvent::MessageSent {
                kind: "query".into(),
                to: "n2.test".into(),
                bytes: 311,
            },
            TraceEvent::MessageDropped {
                kind: "query".into(),
                to: "n2.test".into(),
                bytes: 311,
                reason: "partition".into(),
            },
            TraceEvent::MessageDuplicated {
                kind: "report".into(),
                to: "user.test".into(),
                bytes: 98,
            },
            TraceEvent::MessageCorrupted {
                kind: "query".into(),
                to: "n3.test".into(),
                bytes: 245,
            },
            TraceEvent::EntryExpired {
                node: "http://n5.test/".into(),
            },
            TraceEvent::SendRetried {
                kind: "report".into(),
                to: "user.test".into(),
                attempt: 2,
            },
            TraceEvent::Termination {
                reason: TermReason::Expired,
            },
            TraceEvent::QueryShed { nodes: 5 },
            TraceEvent::Termination {
                reason: TermReason::Shed,
            },
            TraceEvent::CacheHit {
                node: "http://n2.test/".into(),
                subsumed: true,
                rows: 4,
            },
            TraceEvent::CacheMiss {
                node: "http://n3.test/".into(),
            },
            TraceEvent::CacheEvict {
                node: "http://n2.test/".into(),
                bytes: 512,
                resident_bytes: 1_024,
            },
            TraceEvent::StageSpans {
                queue_us: 12,
                parse_us: 1_000,
                log_us: 3,
                cache_us: 2,
                eval_us: 400,
                eval_probe_us: 250,
                eval_scan_us: 150,
                build_us: 0,
                forward_us: 27,
            },
            TraceEvent::AlertFired {
                rule: "shed_rate_burn".into(),
                value_milli: 412,
                threshold_milli: 100,
            },
            TraceEvent::AlertResolved {
                rule: "shed_rate_burn".into(),
                value_milli: 0,
            },
            TraceEvent::WebMutation {
                op: "delete_page".into(),
                url: "http://n2.test/gone.html".into(),
                site_version: 4,
            },
            TraceEvent::DeadLink {
                node: "http://n2.test/gone.html".into(),
                version: 4,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for (i, event) in all_events().into_iter().enumerate() {
            let record = TraceRecord {
                time_us: 1_000 + i as u64,
                site: "n1.test".into(),
                query: Some(qid()),
                hop: Some(i as u32),
                event,
            };
            let line = encode_record(&record);
            let back = decode_record(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, record, "line: {line}");
        }
    }

    /// The exact bytes of one record per event kind, captured from the
    /// encoder before it moved onto the shared codec: traces written by
    /// any build must stay byte-comparable.
    #[test]
    fn every_event_encodes_to_pinned_bytes() {
        const GOLDEN: [&str; 29] = [
            r#"{"time_us":1000,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":0,"event":"query_sent","to_site":"n2.test","nodes":3}"#,
            r#"{"time_us":1001,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":1,"event":"query_recv","nodes":3}"#,
            r#"{"time_us":1002,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":2,"event":"eval_start","node":"http://n2.test/","stage":0}"#,
            r#"{"time_us":1003,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":3,"event":"eval_finish","node":"http://n2.test/","stage":0,"rows":4,"answered":true,"span_us":1250}"#,
            r#"{"time_us":1004,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":4,"event":"stage_transition","node":"http://n4.test/","from_stage":0,"to_stage":1}"#,
            r#"{"time_us":1005,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":5,"event":"log_duplicate","node":"http://n4.test/","exact":false}"#,
            r#"{"time_us":1006,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":6,"event":"log_rewrite","node":"http://n4.test/"}"#,
            r#"{"time_us":1007,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":7,"event":"cht_add","node":"http://n5.test/"}"#,
            r#"{"time_us":1008,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":8,"event":"cht_delete","node":"http://n5.test/"}"#,
            r#"{"time_us":1009,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":9,"event":"doc_fetch","url":"http://n1.test/","cache_hit":false,"content_version":3}"#,
            r#"{"time_us":1010,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":10,"event":"purge","records":12}"#,
            r#"{"time_us":1011,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":11,"event":"termination","reason":"cht-complete"}"#,
            r#"{"time_us":1012,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":12,"event":"message_sent","kind":"query","to":"n2.test","bytes":311}"#,
            r#"{"time_us":1013,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":13,"event":"message_dropped","kind":"query","to":"n2.test","bytes":311,"reason":"partition"}"#,
            r#"{"time_us":1014,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":14,"event":"message_duplicated","kind":"report","to":"user.test","bytes":98}"#,
            r#"{"time_us":1015,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":15,"event":"message_corrupted","kind":"query","to":"n3.test","bytes":245}"#,
            r#"{"time_us":1016,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":16,"event":"entry_expired","node":"http://n5.test/"}"#,
            r#"{"time_us":1017,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":17,"event":"send_retried","kind":"report","to":"user.test","attempt":2}"#,
            r#"{"time_us":1018,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":18,"event":"termination","reason":"expired"}"#,
            r#"{"time_us":1019,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":19,"event":"query_shed","nodes":5}"#,
            r#"{"time_us":1020,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":20,"event":"termination","reason":"shed"}"#,
            r#"{"time_us":1021,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":21,"event":"cache_hit","node":"http://n2.test/","subsumed":true,"rows":4}"#,
            r#"{"time_us":1022,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":22,"event":"cache_miss","node":"http://n3.test/"}"#,
            r#"{"time_us":1023,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":23,"event":"cache_evict","node":"http://n2.test/","bytes":512,"resident_bytes":1024}"#,
            r#"{"time_us":1024,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":24,"event":"stage_spans","queue_us":12,"parse_us":1000,"log_us":3,"cache_us":2,"eval_us":400,"eval_probe_us":250,"eval_scan_us":150,"build_us":0,"forward_us":27}"#,
            r#"{"time_us":1025,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":25,"event":"alert_fired","rule":"shed_rate_burn","value_milli":412,"threshold_milli":100}"#,
            r#"{"time_us":1026,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":26,"event":"alert_resolved","rule":"shed_rate_burn","value_milli":0}"#,
            r#"{"time_us":1027,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":27,"event":"web_mutation","op":"delete_page","url":"http://n2.test/gone.html","site_version":4}"#,
            r#"{"time_us":1028,"site":"n1.test","user":"alice","query_host":"user.test","query_port":9900,"query_num":7,"hop":28,"event":"dead_link","node":"http://n2.test/gone.html","version":4}"#,
        ];
        let events = all_events();
        assert_eq!(events.len(), GOLDEN.len());
        for (i, (event, golden)) in events.into_iter().zip(GOLDEN).enumerate() {
            let record = TraceRecord {
                time_us: 1_000 + i as u64,
                site: "n1.test".into(),
                query: Some(qid()),
                hop: Some(i as u32),
                event,
            };
            assert_eq!(encode_record(&record), golden);
        }
    }

    #[test]
    fn parse_reads_nested_documents_and_standard_escapes() {
        let v = parse(" {\"a\":[1,true,{\"b\":\"x\\/\\b\\f\\u00e9\\ud83d\\ude00\"}],\"c\":{}}\r\n")
            .unwrap();
        let mut inner = BTreeMap::new();
        inner.insert("b".to_string(), Value::Str("x/\u{8}\u{c}é😀".into()));
        let mut outer = BTreeMap::new();
        outer.insert(
            "a".to_string(),
            Value::Arr(vec![Value::Num(1), Value::Bool(true), Value::Obj(inner)]),
        );
        outer.insert("c".to_string(), Value::Obj(BTreeMap::new()));
        assert_eq!(v, Value::Obj(outer));
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_what_the_artifacts_never_contain() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "01",
            "-1",
            "1.5",
            "1e3",
            "null",
            "tru",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\u12\"",
            "\"a\u{1}\"",
            "\"open",
            "18446744073709551616",
            "{} {}",
            "[1] x",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse("18446744073709551615"), Ok(Value::Num(u64::MAX)));
    }

    #[test]
    fn nesting_is_bounded_not_recursed_without_limit() {
        let deep = "[".repeat(200_000);
        assert!(parse(&deep).unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).is_err());
    }

    #[test]
    fn getters_range_check_instead_of_truncating() {
        let v = parse(r#"{"port":70000,"stage":4294967301,"ok":65535,"s":"x","b":false}"#).unwrap();
        assert!(v.req::<u16>("port").unwrap_err().contains("70000"));
        assert_eq!(v.req::<u32>("port"), Ok(70_000));
        assert!(v.req::<u32>("stage").is_err());
        assert_eq!(v.req::<u64>("stage"), Ok(4_294_967_301));
        assert_eq!(v.req::<u16>("ok"), Ok(65_535));
        assert_eq!(v.req::<&str>("s"), Ok("x"));
        assert_eq!(v.req::<bool>("b"), Ok(false));
        assert!(v.req::<u64>("s").is_err(), "wrong type");
        assert!(v.req::<u64>("absent").unwrap_err().contains("missing"));
        assert_eq!(v.opt::<u64>("absent"), Ok(None));
        assert!(Value::Num(1).opt::<u64>("a").is_err(), "not an object");
        // A trace line with an out-of-range hop is refused too.
        assert!(decode_record(
            r#"{"time_us":1,"site":"a","hop":4294967296,"event":"purge","records":0}"#
        )
        .is_err());
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // 2 MB: a decoder that rescans the rest of the input per
        // character (as the old per-crate readers did) takes minutes.
        let long = "é".repeat(1_000_000);
        let mut text = String::new();
        string(&mut text, &long);
        let start = std::time::Instant::now();
        assert_eq!(parse(&text), Ok(Value::Str(long)));
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn object_writer_keeps_call_order() {
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.num("z", 1u32).str("a", "q\"").bool("m", true);
        let mut inner = ObjectWriter::new(w.key("o"));
        inner.num("x", 0u64);
        inner.end();
        w.end();
        assert_eq!(out, r#"{"z":1,"a":"q\"","m":true,"o":{"x":0}}"#);
        let mut empty = String::new();
        ObjectWriter::new(&mut empty).end();
        assert_eq!(empty, "{}");
    }

    #[test]
    fn legacy_stage_spans_without_queue_us_still_decode() {
        // Traces recorded before queue-wait attribution carry no
        // queue_us field, and those before probe-vs-scan attribution no
        // eval_probe_us / eval_scan_us; they decode with the spans zero.
        let line = "{\"time_us\":9,\"site\":\"n1.test\",\"event\":\"stage_spans\",\
                    \"parse_us\":10,\"log_us\":1,\"eval_us\":5,\"build_us\":0,\"forward_us\":2}";
        let record = decode_record(line).unwrap();
        assert_eq!(
            record.event,
            TraceEvent::StageSpans {
                queue_us: 0,
                parse_us: 10,
                log_us: 1,
                cache_us: 0,
                eval_us: 5,
                eval_probe_us: 0,
                eval_scan_us: 0,
                build_us: 0,
                forward_us: 2,
            }
        );
    }

    #[test]
    fn legacy_doc_fetch_without_content_version_still_decodes() {
        let line = "{\"time_us\":9,\"site\":\"n1.test\",\"event\":\"doc_fetch\",\
                    \"url\":\"http://n1.test/a\",\"cache_hit\":true}";
        let record = decode_record(line).unwrap();
        assert_eq!(
            record.event,
            TraceEvent::DocFetch {
                url: "http://n1.test/a".into(),
                cache_hit: true,
                content_version: 0,
            }
        );
    }

    #[test]
    fn queryless_hopless_records_round_trip() {
        let record = TraceRecord {
            time_us: 5,
            site: "n1.test".into(),
            query: None,
            hop: None,
            event: TraceEvent::DocFetch {
                url: "http://n1.test/a".into(),
                cache_hit: true,
                content_version: 0,
            },
        };
        let line = encode_record(&record);
        assert!(!line.contains("query_num") && !line.contains("\"hop\""));
        assert_eq!(decode_record(&line).unwrap(), record);
    }

    #[test]
    fn strings_with_quotes_escapes_and_unicode_round_trip() {
        let record = TraceRecord {
            time_us: 1,
            site: "we\"ird\\site\n\u{1}𐀀".into(),
            query: None,
            hop: None,
            event: TraceEvent::LogRewrite {
                node: "näïve <&> \t".into(),
            },
        };
        let line = encode_record(&record);
        assert_eq!(decode_record(&line).unwrap(), record);
    }

    #[test]
    fn jsonl_reports_bad_line_numbers() {
        let record = TraceRecord {
            time_us: 1,
            site: "a".into(),
            query: None,
            hop: None,
            event: TraceEvent::Purge { records: 0 },
        };
        let text = format!("{}\n\nnot json\n", encode_record(&record));
        let err = decode_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        let ok = decode_jsonl(&format!("{}\n", encode_record(&record))).unwrap();
        assert_eq!(ok.len(), 1);
    }
}
