//! Minimal JSON reader for the artifact gate ([`crate::gate`]).
//!
//! The workspace is hermetic (no external crates), so the regression
//! gate parses its own `BENCH_*.json` documents with this ~150-line
//! recursive-descent reader. It supports exactly the JSON subset the
//! emitters produce — objects, arrays, strings without exotic escapes,
//! numbers, booleans, `null` — and rejects everything else loudly;
//! it is a reader for our own artifacts, not a general-purpose parser.
//! Files are still untrusted input: nesting is bounded by
//! [`MAX_DEPTH`], so a hostile document is an `Err`, never a stack
//! overflow.

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// committed artifacts nest 6 deep.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the emitters never need more than
    /// 53 bits of integer precision in compared fields).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            ch as char,
            *pos,
            b.get(*pos).map(|&c| c as char)
        ))
    }
}

/// Parses one value; `depth` counts the containers it is inside.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nested deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => parse_str(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(&c) => return Err(format!("unsupported escape '\\{}'", c as char)),
                    None => return Err("dangling escape".into()),
                }
                *pos += 1;
            }
            c => {
                // multi-byte UTF-8 sequences pass through byte by byte
                out.push(c as char);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Formats a float the way the workspace's hand-rolled JSON emitters
/// do: finite values keep a decimal point, non-finite become `null`.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let mut s = format!("{v}");
    if !s.contains('.') {
        s.push_str(".0");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_emitter_subset() {
        let doc = r#"{ "schema": "xt-stat/v1", "smoke": true, "n": -1.5e2,
                       "xs": [1, 2.0, null], "nested": { "k": "v" } }"#;
        let v = parse(doc).expect("parses");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some("xt-stat/v1"));
        assert_eq!(v.get("n").and_then(Value::as_num), Some(-150.0));
        assert_eq!(v.get("xs").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
        assert_eq!(
            v.get("nested").and_then(|n| n.get("k")).and_then(Value::as_str),
            Some("v")
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn nesting_is_bounded_by_max_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"k\":", "}"), ("[{\"k\":", "}]")] {
            let per = open.matches(['[', '{']).count();
            let fits = nest(open, close, MAX_DEPTH / per);
            assert!(parse(&fits).is_ok(), "{MAX_DEPTH} levels of {open} parse");
            let err = parse(&nest(open, close, MAX_DEPTH / per + 1)).expect_err("one level too deep");
            assert!(err.contains(&format!("deeper than {MAX_DEPTH}")), "{err}");
            // what used to overflow the stack (and abort the diff tools)
            let hostile = open.repeat(200_000) + &close.repeat(200_000);
            assert!(parse(&hostile).is_err(), "200k levels of {open} is an Err, not a crash");
        }
    }

    #[test]
    fn json_f64_formats() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(0.125), "0.125");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
