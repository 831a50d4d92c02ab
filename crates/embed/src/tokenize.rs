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
/// * a token is a maximal run of Unicode alphanumeric characters
///   ([`char::is_alphanumeric`]: letters and digits of any script, so
///   `Straße`, `İstanbul` and `٣٤` are single tokens);
/// * each character is lowercased with [`char::to_lowercase`], which may
///   expand it (`İ` becomes `i` followed by U+0307);
/// * tokens made only of ASCII digits are dropped;
/// * empty tokens are dropped.
///
/// The collecting form of [`for_each_token`].
pub fn tokenize(value: &str) -> Vec<String> {
    let mut out = Vec::new();
    for_each_token(value, &mut String::new(), |tok| out.push(tok.to_string()));
    out
}

/// Call `f` on every token [`tokenize`] would return, in order, without
/// allocating: the ingest hot path embeds millions of ~6-byte values and
/// keeps one `buf` per worker for the tokens that need lowercasing.
///
/// A value that is all ASCII takes a byte-wise path: for ASCII,
/// `u8::is_ascii_alphanumeric` and `u8::to_ascii_lowercase` agree with
/// `char::is_alphanumeric` and `char::to_lowercase`, so the tokens are the
/// same, and a token with no uppercase letter is passed to `f` straight
/// from `value`. Any other value is decoded `char` by `char`.
pub fn for_each_token(value: &str, buf: &mut String, f: impl FnMut(&str)) {
    if value.is_ascii() {
        for_each_ascii_token(value, buf, f);
    } else {
        for_each_char_token(value, buf, f);
    }
}

/// The byte-wise path of [`for_each_token`]; `value` must be ASCII.
fn for_each_ascii_token(value: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    let bytes = value.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_alphanumeric() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
            i += 1;
        }
        let run = &bytes[start..i];
        if run.iter().all(u8::is_ascii_digit) {
            continue;
        }
        let tok = &value[start..i];
        if run.iter().any(u8::is_ascii_uppercase) {
            buf.clear();
            buf.push_str(tok);
            buf.make_ascii_lowercase();
            f(buf);
        } else {
            f(tok);
        }
    }
}

/// The general path of [`for_each_token`]: Unicode alphanumerics and
/// lowercasing, building each token in `buf`.
fn for_each_char_token(value: &str, buf: &mut String, mut f: impl FnMut(&str)) {
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

    fn ascii_tokens(value: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_ascii_token(value, &mut String::new(), |t| out.push(t.to_string()));
        out
    }

    fn char_tokens(value: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_char_token(value, &mut String::new(), |t| out.push(t.to_string()));
        out
    }

    #[test]
    fn ascii_path_matches_char_path_on_every_short_ascii_string() {
        let ascii = || (0..128u8).map(char::from);
        let singles = ascii().map(String::from);
        let pairs = ascii().flat_map(|a| ascii().map(move |b| String::from_iter([a, b])));
        let all: Vec<String> = std::iter::once(String::new())
            .chain(singles)
            .chain(pairs)
            .collect();
        assert_eq!(all.len(), 1 + 128 + 128 * 128);
        for value in &all {
            assert_eq!(ascii_tokens(value), char_tokens(value), "{value:?}");
        }
    }

    #[test]
    fn ascii_path_matches_char_path_on_random_ascii_strings() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const PUNCT: &[u8] = b" ,.-_/'\"()&;:!?#%$\t\n\x00\x7f";
        let mut rng = StdRng::seed_from_u64(0x70C3);
        let mut value = String::new();
        let (mut digit_only, mut with_upper) = (0, 0);
        for _ in 0..10_000 {
            value.clear();
            let len = rng.random_range(0..=24usize);
            for _ in 0..len {
                let c = match rng.random_range(0..6u32) {
                    0 => rng.random_range(b'A'..=b'Z'),
                    1 | 2 => rng.random_range(b'a'..=b'z'),
                    3 => rng.random_range(b'0'..=b'9'),
                    4 => PUNCT[rng.random_range(0..PUNCT.len())],
                    _ => rng.random_range(0..128u8),
                };
                value.push(c as char);
            }
            let ascii = ascii_tokens(&value);
            assert_eq!(ascii, char_tokens(&value), "{value:?}");
            digit_only += usize::from(
                value
                    .split(|c: char| !c.is_ascii_alphanumeric())
                    .any(|t| !t.is_empty() && t.bytes().all(|b| b.is_ascii_digit())),
            );
            with_upper += usize::from(value.bytes().any(|b| b.is_ascii_uppercase()));
        }
        // The draw really mixes case and digit-only tokens.
        assert!(
            digit_only > 1_000 && with_upper > 1_000,
            "{digit_only} {with_upper}"
        );
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
