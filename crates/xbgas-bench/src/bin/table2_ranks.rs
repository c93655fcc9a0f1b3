//! Table 2 reproduction: logical-to-virtual rank mapping.
//!
//! Prints the paper's example — 7 PEs with PE 4 as the collective root —
//! and accepts `--pes N --root R` for other configurations.

use xbgas_bench::usize_arg;
use xbrtime::collectives::rank_table;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n_pes = usize_arg(&args, "--pes", 7);
    let root = usize_arg(&args, "--root", 4);
    assert!(root < n_pes, "--root must be below --pes");

    println!("# Table 2 — Logical to Virtual Rank Mapping ({n_pes} PEs, root = {root})");
    println!("{:>10} {:>10}", "log_rank", "vir_rank");
    for (log, vir) in rank_table(root, n_pes).iter().enumerate() {
        println!("{log:>10} {vir:>10}");
    }
}
