//! Golden file of the value codec: the cache key and the value bytes of every
//! RUBiS cacheable function, plus edge values, one line per case (see
//! `tests/support/value_corpus.rs` for the corpus and the line format).
//!
//! `tests/golden/value_codec.txt` was recorded while the codec still ran on
//! serde, with both encoders checked byte for byte, so a change to it is a
//! change to the bytes on cache nodes: the keys, `used_bytes` and the
//! eviction order. If the file is missing the test records it and fails, so
//! a fresh recording is always looked at before it is committed.

#[path = "support/value_corpus.rs"]
mod value_corpus;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/value_codec.txt");

#[test]
fn value_codec_matches_the_golden_file() {
    let actual: String = value_corpus::cases()
        .into_iter()
        .map(|(line, _)| line + "\n")
        .collect();
    let Ok(expected) = std::fs::read_to_string(GOLDEN) else {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &actual).unwrap();
        panic!("{GOLDEN} was missing: recorded it; review and commit it, then rerun");
    };
    if actual != expected {
        let (expected_lines, actual_lines): (Vec<&str>, Vec<&str>) =
            (expected.lines().collect(), actual.lines().collect());
        let diffs: Vec<String> = (0..expected_lines.len().max(actual_lines.len()))
            .filter(|&i| expected_lines.get(i) != actual_lines.get(i))
            .take(5)
            .map(|i| {
                format!(
                    "  line {}\n    expected: {}\n    actual:   {}",
                    i + 1,
                    expected_lines.get(i).copied().unwrap_or("<none>"),
                    actual_lines.get(i).copied().unwrap_or("<none>")
                )
            })
            .collect();
        panic!(
            "value codec bytes moved ({} expected lines, {} actual); first differing lines:\n{}",
            expected_lines.len(),
            actual_lines.len(),
            diffs.join("\n")
        );
    }
}
