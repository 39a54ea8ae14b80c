//! The byte cursor behind simkit's two JSONL line parsers,
//! [`crate::trace::parse_line`] and [`crate::fault::FaultPlan::parse`].
//!
//! Both grammars are one flat object per line: double-quoted keys without
//! escapes, then unsigned integers, booleans, arrays of unsigned integers
//! or quoted labels as values, with optional ASCII whitespace between
//! tokens. The cursor is integer-only (simlint holds this file to the same
//! float-free rule as the trace serializer). Failures are [`LineError`]s,
//! which each parser maps into its own public error type.

/// Why a line failed to parse: the byte offset where parsing stopped and
/// what was wrong there.
pub(crate) struct LineError {
    pub(crate) offset: usize,
    pub(crate) message: String,
}

/// Byte cursor over one line.
pub(crate) struct Cursor<'a> {
    s: &'a [u8],
    pos: usize,
}

/// Parses one `{"key": value, ...}` line. `field` is called once per key
/// with the cursor at the key's value, which it must consume (or reject
/// the key).
pub(crate) fn parse_object<'a>(
    line: &'a str,
    mut field: impl FnMut(&'a str, &mut Cursor<'a>) -> Result<(), LineError>,
) -> Result<(), LineError> {
    let mut cur = Cursor { s: line.as_bytes(), pos: 0 };
    cur.skip_ws();
    cur.eat(b'{')?;
    cur.skip_ws();
    if cur.peek() == Some(b'}') {
        cur.pos += 1;
    } else {
        loop {
            let key = cur.parse_string()?;
            cur.skip_ws();
            cur.eat(b':')?;
            cur.skip_ws();
            field(key, &mut cur)?;
            cur.skip_ws();
            match cur.bump() {
                Some(b',') => cur.skip_ws(),
                Some(b'}') => break,
                _ => return Err(cur.err("expected ',' or '}'")),
            }
        }
    }
    cur.skip_ws();
    if cur.pos != cur.s.len() {
        return Err(cur.err("trailing bytes after the object"));
    }
    Ok(())
}

impl<'a> Cursor<'a> {
    /// An error at the current position.
    pub(crate) fn err(&self, message: &str) -> LineError {
        LineError { offset: self.pos, message: message.into() }
    }

    /// Byte offset of the next unread byte.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), LineError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", char::from(want))))
        }
    }

    /// A double-quoted string (a key or a label). Escapes are not part of
    /// either grammar.
    pub(crate) fn parse_string(&mut self) -> Result<&'a str, LineError> {
        self.eat(b'"')?;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' {
                let raw = &self.s[start..self.pos];
                self.pos += 1;
                return std::str::from_utf8(raw).map_err(|_| LineError {
                    offset: start,
                    message: "string is not UTF-8".into(),
                });
            }
            if b == b'\\' {
                return Err(self.err("escapes are not part of the line grammar"));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    pub(crate) fn parse_u64(&mut self) -> Result<u64, LineError> {
        let start = self.pos;
        let mut v: u64 = 0;
        let mut any = false;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            let digit = u64::from(b - b'0');
            v = v.checked_mul(10).and_then(|v| v.checked_add(digit)).ok_or_else(|| LineError {
                offset: start,
                message: "integer overflows u64".into(),
            })?;
            self.pos += 1;
            any = true;
        }
        if any {
            Ok(v)
        } else {
            Err(self.err("expected an unsigned integer"))
        }
    }

    /// [`Cursor::parse_u64`] for a named field: failures name the
    /// offending field, so a malformed line reports *what* was wrong, not
    /// just where.
    pub(crate) fn parse_field(&mut self, field: &str) -> Result<u64, LineError> {
        self.parse_u64().map_err(|mut e| {
            e.message = format!("field {field:?}: {}", e.message);
            e
        })
    }

    pub(crate) fn parse_bool(&mut self) -> Result<bool, LineError> {
        for (lit, val) in [(&b"true"[..], true), (&b"false"[..], false)] {
            if self.s[self.pos..].starts_with(lit) {
                self.pos += lit.len();
                return Ok(val);
            }
        }
        Err(self.err("expected 'true' or 'false'"))
    }

    pub(crate) fn parse_u64_array(&mut self) -> Result<Vec<u64>, LineError> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(self.parse_u64()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(out),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}
