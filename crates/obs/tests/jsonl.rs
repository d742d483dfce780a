//! The Perfetto export must be one valid JSON document that carries
//! every span and arg verbatim. Rather than trusting the writer, parse
//! it back with a minimal test-side JSON parser (objects, arrays,
//! strings, numbers, literals).

use ccsql_obs::flight::{chrome_trace_json, Flight};
use ccsql_obs::FieldValue;
use std::collections::BTreeMap;

// ----------------------------------------------------------- parser

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> u8 {
        self.b[self.i]
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        if self.i >= self.b.len() {
            return Err("eof".into());
        }
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            if self.i >= self.b.len() {
                return Err("unterminated string".into());
            }
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.i += 1;
                    let e = self.b[self.i];
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            s.push(char::from_u32(cp).ok_or("bad codepoint")?);
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                c if c < 0x20 => return Err("raw control char in string".into()),
                _ => {
                    // Multi-byte UTF-8 passes through byte-wise.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && self.b[self.i] & 0xC0 == 0x80 {
                        self.i += 1;
                    }
                    s.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut v = Vec::new();
        self.ws();
        if self.peek() == b']' {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.ws();
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("bad array at {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut m = BTreeMap::new();
        self.ws();
        if self.peek() == b'}' {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.eat(b':')?;
            m.insert(k, self.value()?);
            self.ws();
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("bad object at {}", self.i)),
            }
        }
    }
}

fn parse(line: &str) -> Result<Json, String> {
    let mut p = P {
        b: line.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at {} in {line:?}", p.i));
    }
    Ok(v)
}

// ------------------------------------------------------------ tests

fn get<'a>(v: &'a Json, k: &str) -> &'a Json {
    match v {
        Json::Obj(m) => m.get(k).unwrap_or_else(|| panic!("missing key {k}")),
        _ => panic!("not an object"),
    }
}

fn s(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn n(v: &Json) -> f64 {
    match v {
        Json::Num(n) => *n,
        _ => panic!("not a number: {v:?}"),
    }
}

fn arr(v: &Json) -> &[Json] {
    match v {
        Json::Arr(a) => a,
        _ => panic!("not an array: {v:?}"),
    }
}

fn has(v: &Json, k: &str) -> bool {
    matches!(v, Json::Obj(m) if m.contains_key(k))
}

#[test]
fn chrome_trace_parses_back_with_every_arg() {
    let f = Flight::new();
    {
        let root = f.begin("solve", "table \"D\"\n");
        root.arg("column", "nxtdirst \"quoted\"\n\t\u{1}");
        root.arg("rows", 498usize);
        root.arg("delta", -3i64);
        root.arg("mean", 0.5f64);
        root.arg("nan", f64::NAN);
        root.arg("inf", FieldValue::F64(f64::INFINITY));
        let child = f.begin("mc", "explore");
        child.arg("states", 60u64);
    }
    let doc = parse(&chrome_trace_json(&f.snapshot()))
        .unwrap_or_else(|e| panic!("trace is not one JSON document: {e}"));
    let events = arr(get(&doc, "traceEvents"));
    assert_eq!(events.len(), 1 + 2, "process-name record + 2 spans");
    assert_eq!(s(get(&events[0], "ph")), "M");

    let (root, child) = (&events[1], &events[2]);
    assert_eq!(s(get(root, "ph")), "X");
    assert_eq!(s(get(root, "cat")), "solve");
    // Escaped span names and Str args survive the round trip.
    assert_eq!(s(get(root, "name")), "table \"D\"\n");
    let args = get(root, "args");
    assert_eq!(s(get(args, "column")), "nxtdirst \"quoted\"\n\t\u{1}");
    assert_eq!(n(get(args, "rows")), 498.0);
    assert_eq!(n(get(args, "delta")), -3.0);
    assert_eq!(n(get(args, "mean")), 0.5);
    // Non-finite floats have no JSON spelling: they are written as null.
    assert_eq!(get(args, "nan"), &Json::Null);
    assert_eq!(get(args, "inf"), &Json::Null);

    // Parent ids: the root has none, the child names the root's id.
    assert_eq!(n(get(args, "span_id")), 1.0);
    assert!(!has(args, "parent_id"), "a root span has no parent_id");
    let cargs = get(child, "args");
    assert_eq!(n(get(cargs, "span_id")), 2.0);
    assert_eq!(n(get(cargs, "parent_id")), 1.0);
    assert_eq!(n(get(cargs, "states")), 60.0);
    assert_eq!(
        get(child, "tid"),
        get(root, "tid"),
        "same thread, same track"
    );
    assert!(n(get(child, "ts")) >= n(get(root, "ts")));
}

#[test]
fn empty_recording_is_a_valid_document() {
    let doc = parse(&chrome_trace_json(&[])).unwrap();
    assert_eq!(arr(get(&doc, "traceEvents")).len(), 1, "process name only");
}
