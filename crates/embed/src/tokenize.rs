//! Value tokenization.
//!
//! Data-lake cell values are free text ("Canadian Food Inspection Agency",
//! "salmon, atlantic — farmed"). The paper embeds values word-by-word and
//! averages; this module performs the corresponding splitting and
//! normalization: lowercase, split on non-alphanumeric boundaries, drop
//! pure-numeric tokens (the paper builds organizations over *text*
//! attributes only, §3.1).

/// Tokenize a raw cell value into lowercase word tokens.
///
/// Rules (matching common IR practice and the paper's text-attribute focus):
/// * split on any non-alphanumeric character,
/// * lowercase ASCII,
/// * drop tokens that are entirely numeric,
/// * drop empty tokens.
///
/// The collecting form of [`for_each_token`].
pub fn tokenize(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(value, &mut String::new(), |tok| out.push(tok.to_string()));
    out
}

/// Call `f` on every token [`tokenize`] would return, in order, building
/// each token in the reusable `buf` instead of allocating: the ingest hot
/// path embeds millions of ~6-byte values and keeps one buffer per worker.
pub fn for_each_token(value: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    for ch in value.chars() {
        if ch.is_alphanumeric() {
            buf.extend(ch.to_lowercase());
        } else if !buf.is_empty() {
            emit_token(buf, &mut f);
        }
    }
    if !buf.is_empty() {
        emit_token(buf, &mut f);
    }
}

fn emit_token(buf: &mut String, f: &mut impl FnMut(&str)) {
    if !buf.bytes().all(|b| b.is_ascii_digit()) {
        f(buf);
    }
    buf.clear();
}

/// Whether a raw value looks numeric (used for text-attribute detection in
/// CSV ingestion: a column whose values are mostly numeric is excluded from
/// organization construction per §3.1).
pub fn is_numeric_value(value: &str) -> bool {
    let v = value.trim();
    if v.is_empty() {
        return false;
    }
    // `f64` parsing rejects `$€£`, `,` and `%`, so a value carrying any of
    // them can only parse once they are stripped.
    let unsigned = v.trim_start_matches(['$', '€', '£']);
    if unsigned.bytes().any(|b| b == b',' || b == b'%') {
        unsigned.replace([',', '%'], "").parse::<f64>().is_ok()
    } else {
        unsigned.parse::<f64>().is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            tokenize("Canadian Food-Inspection AGENCY"),
            vec!["canadian", "food", "inspection", "agency"]
        );
    }

    #[test]
    fn drops_numeric_tokens() {
        assert_eq!(tokenize("route 66 highway"), vec!["route", "highway"]);
    }

    #[test]
    fn keeps_alphanumeric_mixed_tokens() {
        assert_eq!(tokenize("h1n1 virus"), vec!["h1n1", "virus"]);
    }

    #[test]
    fn empty_and_symbol_only_values() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- !!! 123").is_empty());
    }

    #[test]
    fn numeric_detection() {
        assert!(is_numeric_value("42"));
        assert!(is_numeric_value("-3.75"));
        assert!(is_numeric_value("$1,234.50"));
        assert!(is_numeric_value("12%"));
        assert!(!is_numeric_value("salmon"));
        assert!(!is_numeric_value(""));
        assert!(!is_numeric_value("h1n1"));
    }

    #[test]
    fn numeric_detection_pins_separator_and_sign_cases() {
        let cases = [
            ("$1,200", true),
            ("45%", true),
            ("€3.5", true),
            ("1,2,3", true),
            (" 7 ", true),
            ("t3w12", false),
            ("", false),
            ("-", false),
        ];
        for (value, numeric) in cases {
            assert_eq!(is_numeric_value(value), numeric, "{value:?}");
        }
    }

    #[test]
    fn for_each_token_reuses_one_buffer_and_matches_tokenize() {
        let mut buf = String::new();
        for value in ["Straße İstanbul ΣΊΣΥΦΟΣ", "route 66 ٣٤ h1n1", "", "--"] {
            let mut seen = Vec::new();
            for_each_token(value, &mut buf, |t| seen.push(t.to_string()));
            assert_eq!(seen, tokenize(value), "{value:?}");
        }
        assert_eq!(
            tokenize("Straße İstanbul ΣΊΣΥΦΟΣ ٣٤"),
            vec!["straße", "i\u{307}stanbul", "σίσυφοσ", "٣٤"]
        );
    }
}
