//! The analysis-diagnostics golden: the full text of every diagnostic the
//! negative tests provoke, one keyed entry per test, in one file shared by
//! `tests/ir_analysis.rs`, `tests/ir_programs.rs` and the seeded clashes
//! of `redn_core`'s `interference` unit tests (which include this file by
//! path).
//!
//! House rule (ROADMAP): the file is generated at the *parent* commit —
//! copy the tests into a clone of it and run them with `UPDATE_GOLDEN=1`
//! — and must pass unmodified on the change. Regenerate in place only
//! when a PR says it rewords a diagnostic.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::Mutex;

const HEADER: &str = "\
# Full text of every analysis / verifier diagnostic the negative tests provoke.
# Generated at the parent commit (UPDATE_GOLDEN=1); see tests/common/mod.rs.
";

/// Entries are `== key` lines followed by the message's lines.
fn parse(text: &str) -> BTreeMap<String, String> {
    let mut entries = BTreeMap::new();
    let mut key: Option<String> = None;
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        match (line.strip_prefix("== "), &key) {
            (Some(k), _) => {
                entries.insert(k.to_string(), String::new());
                key = Some(k.to_string());
            }
            (None, Some(k)) => {
                let message: &mut String = entries.get_mut(k).expect("inserted above");
                if !message.is_empty() {
                    message.push('\n');
                }
                message.push_str(line);
            }
            (None, None) => {}
        }
    }
    entries
}

/// Compare `message` with the entry `key` of the golden file at `path`;
/// with `UPDATE_GOLDEN` set, write the entry instead (tests of one binary
/// run on parallel threads, so updates are serialized here; cargo runs
/// the binaries one after another).
pub fn check_diagnostic(path: &str, key: &str, message: &str) {
    static LOCK: Mutex<()> = Mutex::new(());
    let _serial = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut entries = parse(&std::fs::read_to_string(path).unwrap_or_default());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        entries.insert(key.to_string(), message.to_string());
        let mut text = HEADER.to_string();
        for (k, m) in &entries {
            text.push_str(&format!("== {k}\n{m}\n"));
        }
        std::fs::write(path, text).expect("write the diagnostics golden");
        return;
    }
    let want = entries.get(key).unwrap_or_else(|| {
        panic!("{path} has no entry `{key}`: generate it at the parent commit (UPDATE_GOLDEN=1)")
    });
    assert_eq!(message, want, "diagnostic `{key}` changed (golden: {path})");
}
