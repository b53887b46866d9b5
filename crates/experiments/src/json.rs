//! Minimal hand-rolled JSON helpers shared by the result store, the
//! JSONL event log, and `pipe-sim --json`.
//!
//! The workspace deliberately has no external dependencies, so the few
//! places that speak JSON — store entries, event lines, statistics
//! reports — share this one implementation instead of private copies.
//! The model is deliberately small: flat objects whose values are
//! unsigned integers, booleans, or strings with the standard escapes. Field extraction is by key search (`"field":`), which is
//! exactly right for the fixed, known-key objects these formats use and
//! wrong for arbitrary JSON; callers own their schemas.

use pipe_core::SimStats;

/// Escapes a string for embedding in a JSON string literal: `"` and `\`
/// get backslash escapes, control characters the standard short or
/// `\u00XX` forms.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The raw text immediately after `"field":`, or `None` when the field
/// is absent.
pub fn field_value<'a>(text: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":");
    let at = text.find(&needle)?;
    Some(text[at + needle.len()..].trim_start())
}

/// Extracts an unsigned integer field from a flat JSON object.
pub fn field_u64(text: &str, field: &str) -> Option<u64> {
    let rest = field_value(text, field)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts and unescapes a string field from a flat JSON object.
/// Malformed input — an unterminated literal, an unknown escape, a bad
/// `\u` sequence, or a raw control character — returns `None` rather
/// than a silently mis-parsed value.
pub fn field_str(text: &str, field: &str) -> Option<String> {
    let rest = field_value(text, field)?.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c if (c as u32) < 0x20 => return None,
            c => out.push(c),
        }
    }
}

/// Serializes run statistics as a JSON object — the shape `pipe-sim
/// --json` prints. Hand-rolled; the
/// stats are all integers so no escaping is needed beyond the fixed
/// keys. Only the fields below are covered (queue occupancies and
/// memory-system counters are not), so two [`SimStats`] that agree on
/// them serialize identically.
pub fn stats_json(stats: &SimStats) -> String {
    format!(
        concat!(
            "{{\"cycles\":{},\"instructions\":{},\"cpi\":{:.4},",
            "\"loads\":{},\"stores\":{},\"fpu_ops\":{},",
            "\"branches_taken\":{},\"branches_not_taken\":{},",
            "\"stalls\":{{\"ifetch\":{},\"data_wait\":{},\"queue_full\":{},\"branch\":{}}},",
            "\"fetch\":{{\"demand_requests\":{},\"prefetch_requests\":{},",
            "\"bytes_requested\":{},\"cache_hits\":{},\"cache_misses\":{},",
            "\"redirects\":{},\"wasted_requests\":{}}},",
            "\"mem\":{{\"contended_cycles\":{}}}}}"
        ),
        stats.cycles,
        stats.instructions_issued,
        stats.cpi(),
        stats.loads,
        stats.stores,
        stats.fpu_ops,
        stats.branches_taken,
        stats.branches_not_taken,
        stats.stalls.ifetch,
        stats.stalls.data_wait,
        stats.stalls.queue_full,
        stats.stalls.branch,
        stats.fetch.demand_requests,
        stats.fetch.prefetch_requests,
        stats.fetch.bytes_requested,
        stats.fetch.cache_hits,
        stats.fetch.cache_misses,
        stats.fetch.redirects,
        stats.fetch.wasted_requests,
        stats.mem.contended_cycles,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_field_str() {
        let nasty = "a\"b\\c\nd\te\rf\u{1}g";
        let obj = format!("{{\"k\":\"{}\"}}", escape(nasty));
        assert_eq!(field_str(&obj, "k").unwrap(), nasty);
    }

    #[test]
    fn field_extraction() {
        let obj = "{\"n\":42,\"s\":\"hi\"}";
        assert_eq!(field_u64(obj, "n"), Some(42));
        assert_eq!(field_str(obj, "s").as_deref(), Some("hi"));
        assert_eq!(field_u64(obj, "missing"), None);
    }

    #[test]
    fn whitespace_after_colon_is_tolerated() {
        let obj = "{\"n\": 7, \"s\": \"x\"}";
        assert_eq!(field_u64(obj, "n"), Some(7));
        assert_eq!(field_str(obj, "s").as_deref(), Some("x"));
    }

    #[test]
    fn malformed_strings_are_rejected_not_misparsed() {
        // Unterminated literal.
        assert!(field_str("{\"key\":\"abc", "key").is_none());
        // Unknown escape.
        assert!(field_str("{\"key\":\"a\\qb\"}", "key").is_none());
        // Truncated \u sequence.
        assert!(field_str("{\"key\":\"a\\u00\"}", "key").is_none());
        // Raw control character.
        assert!(field_str("{\"key\":\"a\nb\"}", "key").is_none());
        // Valid escapes parse.
        assert_eq!(
            field_str("{\"key\":\"a\\\"b\\\\c\\u0041\"}", "key").unwrap(),
            "a\"b\\cA"
        );
    }

    #[test]
    fn stats_json_is_valid_shape() {
        let stats = SimStats {
            cycles: 100,
            instructions_issued: 40,
            ..Default::default()
        };
        let j = stats_json(&stats);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":100"));
        assert!(j.contains("\"cpi\":2.5000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
