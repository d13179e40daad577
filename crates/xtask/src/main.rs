//! Workspace task runner. One task, the static checker:
//!
//! ```text
//! cargo xtask audit [--json] [--write-baseline] [--dump FILE] [workspace-root]
//! ```
//!
//! `audit` runs the call-graph audit (rules A1–A6) and checks the
//! rendered report against the committed `AUDIT.json` baseline. It exits
//! non-zero if any rule fires. See [`audit`] for the rule catalogue.

mod audit;

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("audit") => {
            let mut print_json = false;
            let mut write_baseline = false;
            let mut dump = None;
            let mut root = None;
            let mut args = args.peekable();
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--json" => print_json = true,
                    "--write-baseline" => write_baseline = true,
                    "--dump" => dump = args.next(),
                    other => root = Some(PathBuf::from(other)),
                }
            }
            let root = root.unwrap_or_else(workspace_root);
            if let Some(rel) = dump {
                audit::dump(&root, &rel);
                return ExitCode::SUCCESS;
            }
            if audit::cli(&root, print_json, write_baseline) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        other => {
            eprintln!(
                "usage: cargo xtask audit [--json] [--write-baseline] [--dump FILE] [workspace-root]{}",
                other
                    .map(|o| format!(" (unknown task {o:?})"))
                    .unwrap_or_default()
            );
            ExitCode::FAILURE
        }
    }
}
