//! Byte scanner for the head of a serve reply line.
//!
//! The timed client never parses a reply as JSON: a `vars`-detail DCT
//! reply is ~155 KB, and a full parse of it costs far more than the
//! request it measures. Every analyze reply starts with the same
//! fixed-order scalar fields (`id`, `ok`, `trace_id`, `kernel`,
//! `cached`, `server_ns`, then the large `tasks`/`reports` arrays), so
//! the scanner only looks at the first [`HEAD_BYTES`] bytes. Full
//! verification of sampled replies happens after the timed window.

/// How far into a reply the scalar fields are looked for.
pub const HEAD_BYTES: usize = 512;

/// The scalar fields of one reply, as scanned.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplyHead {
    /// Echoed request id.
    pub id: u64,
    /// `true` for a successful analyze reply.
    pub ok: bool,
    /// `true` when the server served the request from its tape cache.
    pub cached: bool,
    /// Server-side service time, nanoseconds (0 on error replies).
    pub server_ns: u64,
    /// The 16-hex-digit trace id (empty on error replies).
    pub trace_id: String,
}

/// Position just past the first occurrence of `needle` in `hay`.
fn after(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + needle.len())
}

/// The unsigned integer that follows `key` (e.g. `"id":`).
fn uint_field(head: &[u8], key: &[u8]) -> Option<u64> {
    let start = after(head, key)?;
    let digits = head[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    if digits == 0 {
        return None;
    }
    std::str::from_utf8(&head[start..start + digits])
        .ok()?
        .parse()
        .ok()
}

/// The `true`/`false` literal that follows `key`.
fn bool_field(head: &[u8], key: &[u8]) -> Option<bool> {
    let start = after(head, key)?;
    let rest = &head[start..];
    if rest.starts_with(b"true") {
        Some(true)
    } else if rest.starts_with(b"false") {
        Some(false)
    } else {
        None
    }
}

/// Scans the head of one reply line (without its newline). Returns
/// `None` when the line does not start like a serve reply at all; an
/// error reply scans as `ok: false`.
pub fn scan_reply(line: &[u8]) -> Option<ReplyHead> {
    if !line.starts_with(b"{\"id\":") {
        return None;
    }
    let head = &line[..line.len().min(HEAD_BYTES)];
    let id = uint_field(head, b"\"id\":")?;
    let ok = bool_field(head, b"\"ok\":")?;
    if !ok {
        return Some(ReplyHead {
            id,
            ..ReplyHead::default()
        });
    }
    let trace_id = after(head, b"\"trace_id\":\"").and_then(|start| {
        let len = head[start..].iter().position(|&b| b == b'"')?;
        Some(String::from_utf8_lossy(&head[start..start + len]).into_owned())
    })?;
    Some(ReplyHead {
        id,
        ok,
        cached: bool_field(head, b"\"cached\":")?,
        server_ns: uint_field(head, b"\"server_ns\":")?,
        trace_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_an_analyze_reply() {
        let line = br#"{"id":17,"ok":true,"trace_id":"00000000000000ab","kernel":"dct","cached":true,"server_ns":8123456,"tasks":[{"task_id":0}],"reports":[]}"#;
        let head = scan_reply(line).unwrap();
        assert_eq!(head.id, 17);
        assert!(head.ok);
        assert!(head.cached);
        assert_eq!(head.server_ns, 8_123_456);
        assert_eq!(head.trace_id, "00000000000000ab");
    }

    #[test]
    fn scans_an_uncached_reply() {
        let line = br#"{"id":1,"ok":true,"trace_id":"0000000000000001","kernel":"blackscholes","cached":false,"server_ns":5,"tasks":[],"reports":[]}"#;
        let head = scan_reply(line).unwrap();
        assert!(!head.cached);
        assert_eq!(head.server_ns, 5);
    }

    #[test]
    fn error_reply_is_not_ok() {
        let head = scan_reply(br#"{"id":3,"ok":false,"error":"unknown kernel \"x\""}"#).unwrap();
        assert_eq!(head.id, 3);
        assert!(!head.ok);
    }

    #[test]
    fn rejects_lines_that_are_not_replies() {
        assert_eq!(scan_reply(b""), None);
        assert_eq!(scan_reply(b"garbage"), None);
        assert_eq!(scan_reply(br#"{"id":x,"ok":true}"#), None);
        // A truncated head (no cached/server_ns) is not a valid reply.
        assert_eq!(
            scan_reply(br#"{"id":2,"ok":true,"trace_id":"00000000000000ab"}"#),
            None
        );
    }

    #[test]
    fn ignores_fields_past_the_head() {
        // A "cached" key deep inside the payload must not be picked up
        // when the head lacks one.
        let mut line =
            br#"{"id":4,"ok":true,"trace_id":"0000000000000004","kernel":"dct","server_ns":9,"tasks":["#
                .to_vec();
        line.extend(std::iter::repeat_n(b' ', HEAD_BYTES));
        line.extend_from_slice(br#""cached":true]}"#);
        assert_eq!(scan_reply(&line), None);
    }
}
