//! Minimal table/JSON output helpers shared by the experiment binaries.

use serde::Serialize;

/// Prints a header line plus aligned rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Emits rows as JSON if `--json` was passed on the command line.
pub fn maybe_json<T: Serialize>(rows: &T) -> bool {
    if std::env::args().any(|a| a == "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(rows).expect("serializable")
        );
        true
    } else {
        false
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
