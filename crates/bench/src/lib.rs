//! Harness for the unified `parfaclo` runner.
//!
//! This crate owns the pieces that need visibility over every algorithm
//! crate at once:
//!
//! * [`registry`] — assembly of the full solver [`parfaclo_api::Registry`]
//!   (`standard_registry()`), the entry point for the CLI, the examples,
//!   the repository benchmark and the cross-crate conformance tests;
//! * [`runner`] — the engine behind the `parfaclo` binary: `--gen` spec
//!   parsing, instance construction, solver dispatch, JSON emission;
//! * the `parfaclo` binary itself (`src/bin/parfaclo.rs`), which replaces
//!   the ten historical `exp_e*` experiment binaries with one driver
//!   (`run` / `suite` / `ablation` / `list`) emitting a single JSON run
//!   schema for every experiment;
//! * the [`Table`] plain-text printer and the SIGPIPE helper shared by
//!   the binary and the examples.
//!
//! Everything is deterministic given the seeds passed on the command line,
//! so any experiment table can be reproduced exactly from its JSON record's
//! `seed`/`epsilon`/generator fields.

#![warn(missing_docs)]

pub mod bench;
pub mod registry;
pub mod runner;

pub use registry::standard_registry;

/// Restores the default SIGPIPE disposition so piping a binary into
/// `head`/`grep` terminates it quietly instead of panicking on a
/// broken-pipe write (Rust installs SIG_IGN before `main`). Call first
/// thing in `main` of every CLI/example binary.
#[cfg(unix)]
pub fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

/// No-op on non-unix targets.
#[cfg(not(unix))]
pub fn reset_sigpipe() {}

/// A fixed-width plain-text table printer used by every experiment binary.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
}

impl Table {
    /// Creates a streaming table with the given column headers and prints
    /// the header row. Each column is `max(header, 10)` characters wide, and
    /// a longer cell widens its own row only.
    pub fn new(headers: &[&str]) -> Self {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let t = Table { headers, widths };
        print!("{}", t.header());
        t
    }

    /// Renders a whole table whose columns are each as wide as their widest
    /// cell, header included, so that every column lines up: for a caller
    /// that holds all its rows before it prints (`parfaclo list`).
    ///
    /// # Panics
    /// Panics if a row's cell count differs from the header count.
    pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
        let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
        for row in rows {
            assert_eq!(row.len(), headers.len(), "row arity mismatch");
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let headers = headers.iter().map(|s| s.to_string()).collect();
        let t = Table { headers, widths };
        let mut out = t.header();
        for row in rows {
            out += &t.line(row);
        }
        out
    }

    /// The header row and its dashed rule.
    fn header(&self) -> String {
        let header = self.line(&self.headers);
        format!("{header}{}\n", "-".repeat(header.len() - 1))
    }

    /// One right-aligned row, newline-terminated.
    fn line(&self, cells: &[String]) -> String {
        let cells: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        format!("{}\n", cells.join("  "))
    }

    /// Prints one row; the number of cells must match the number of headers.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        print!("{}", self.line(cells));
    }
}
