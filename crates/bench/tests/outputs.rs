//! Pin suite: what the experiment executables print and write.
//!
//! Every experiment is spawned in a fresh temporary working directory
//! and held to bytes recorded before the harness was refactored:
//!
//! * `golden/*.stdout` — the deterministic outputs (access counts,
//!   model parameters), byte for byte;
//!   `golden/fig10_smoke_counts.txt` — Figure 10's table without its
//!   two ms columns;
//! * the three committed count files at the repository root
//!   (`BENCH_tpch.json`, `BENCH_multiview{,_nopromotion}.json`), which
//!   the full runs rewrite byte for byte, and the two committed
//!   `EXPLAIN MAINTENANCE` reports (`EXPLAIN_tpch.txt`,
//!   `EXPLAIN_fig10.txt`), which `sqlshell --smoke` rewrites byte for
//!   byte;
//! * `golden/*.masked.json` — the timing-bearing reports with every run
//!   of `[0-9.]` replaced by `#` (`sed -E 's/[0-9.]+/#/g'`), so keys,
//!   order, layout and strings are pinned while the numbers are free.
//!
//! [`command`] is the only place that knows how an experiment name
//! becomes a command line.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Experiment name → the command that runs it (flags are appended by
/// the caller).
fn command(name: &str) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_idivm-bench"));
    command.arg(name);
    command
}

/// A finished run: its stdout and the directory it wrote into (removed
/// on drop).
struct Run {
    stdout: String,
    dir: PathBuf,
}

impl Run {
    fn file(&self, name: &str) -> String {
        let path = self.dir.join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }
}

impl Drop for Run {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run `name args…` in a fresh temporary directory; the exit status
/// must be 0.
fn run(name: &str, args: &[&str]) -> Run {
    let tag: String = std::iter::once(name)
        .chain(args.iter().copied())
        .collect::<Vec<_>>()
        .join("_")
        .replace("--", "");
    let dir = std::env::temp_dir().join(format!("idivm_bench_pin_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp cwd");
    let out = command(name)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    let run = Run {
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        dir,
    };
    assert!(
        out.status.success(),
        "{name} {args:?} exited with {}\n--- stdout\n{}\n--- stderr\n{}",
        out.status,
        run.stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    run
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn committed(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Byte comparison that names the first differing line.
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{what}: differs from the pinned bytes at line {}\n  got:  {:?}\n  want: {:?}",
        line + 1,
        got.lines().nth(line),
        want.lines().nth(line)
    );
}

/// Every run of `[0-9.]` becomes one `#`.
fn mask(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_run = false;
    for c in text.chars() {
        let numeric = c.is_ascii_digit() || c == '.';
        if !numeric {
            out.push(c);
        } else if !in_run {
            out.push('#');
        }
        in_run = numeric;
    }
    out
}

#[test]
fn table2_stdout_is_pinned() {
    assert_same(
        "table2",
        &run("table2", &[]).stdout,
        &golden("table2.stdout"),
    );
}

#[test]
fn table3_stdout_is_pinned() {
    assert_same(
        "table3",
        &run("table3", &[]).stdout,
        &golden("table3.stdout"),
    );
}

#[test]
fn analysis_stdout_is_pinned() {
    assert_same(
        "analysis",
        &run("analysis", &[]).stdout,
        &golden("analysis.stdout"),
    );
}

#[test]
fn fig12_all_smoke_stdout_is_pinned() {
    let run = run("fig12", &["all", "--smoke"]);
    assert_same(
        "fig12 all --smoke",
        &run.stdout,
        &golden("fig12_all_smoke.stdout"),
    );
}

/// Figure 10's table cut to its count columns (query, ID accesses,
/// tuple accesses, speedup): the two ms columns and the description go.
fn fig10_counts(stdout: &str) -> String {
    let width = 6 + 12 + 12 + 9 + 3 * 2;
    stdout
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("query"))
        .take_while(|l| !l.is_empty())
        .map(|l| format!("{}\n", l.get(..width).unwrap_or(l)))
        .collect()
}

#[test]
fn fig10_smoke_counts_are_pinned() {
    let run = run("fig10", &["--smoke"]);
    assert_same(
        "fig10 --smoke (count columns)",
        &fig10_counts(&run.stdout),
        &golden("fig10_smoke_counts.txt"),
    );
}

#[test]
fn full_runs_rewrite_the_committed_count_files() {
    let tpch = run("tpch", &[]);
    assert_same(
        "BENCH_tpch.json",
        &tpch.file("BENCH_tpch.json"),
        &committed("BENCH_tpch.json"),
    );
    let multiview = run("multiview", &[]);
    for file in ["BENCH_multiview.json", "BENCH_multiview_nopromotion.json"] {
        assert_same(file, &multiview.file(file), &committed(file));
    }
}

#[test]
fn timing_reports_keep_keys_order_layout_and_strings() {
    let fig10 = run("fig10", &["--smoke"]);
    assert_same(
        "BENCH_fig10_trace.json (masked)",
        &mask(&fig10.file("BENCH_fig10_trace.json")),
        &golden("fig10_trace.masked.json"),
    );
    let fig12 = run("fig12", &["diff-size", "--smoke"]);
    assert_same(
        "BENCH_fig12_trace.json (masked)",
        &mask(&fig12.file("BENCH_fig12_trace.json")),
        &golden("fig12_trace.masked.json"),
    );
    let scaling = run("scaling", &["--smoke"]);
    assert_same(
        "BENCH_scaling.json (masked)",
        &mask(&scaling.file("BENCH_scaling.json")),
        &golden("scaling.masked.json"),
    );
}

#[test]
fn sqlshell_smoke_rewrites_the_committed_explain_files() {
    let run = run("sqlshell", &["--smoke"]);
    for file in ["EXPLAIN_tpch.txt", "EXPLAIN_fig10.txt"] {
        assert_same(file, &run.file(file), &committed(file));
    }
}

/// The `--smoke` runs no other test makes (the rest exit 0 above).
#[test]
fn remaining_smoke_runs_exit_zero() {
    for name in ["tpch", "multiview", "wall"] {
        run(name, &["--smoke"]);
    }
}
