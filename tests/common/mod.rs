//! Shared by the integration suites that pin a committed file (the
//! durability crate's suites include it by path).

/// `text` equals the committed `file` (relative to the including
/// package's root) byte for byte; `IDIVM_BLESS=1` rewrites the file
/// instead.
pub fn assert_pinned(file: &str, text: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    if std::env::var_os("IDIVM_BLESS").is_some() {
        std::fs::write(&path, text).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap();
    let moved = text
        .lines()
        .zip(pinned.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b);
    if let Some((i, (now, was))) = moved {
        panic!(
            "{file}: line {} moved\n  now:    {now}\n  pinned: {was}",
            i + 1
        );
    }
    assert_eq!(text.len(), pinned.len(), "{file}: the length moved");
}
