//! Prints the competitive-ratio table for the adversarial catalog: every
//! §6 algorithm plus the online policy suite, measured against the exact
//! (or flagged lower-bound) offline optimum. Pass `--markdown` for the
//! EXPERIMENTS.md grid, `--par <shards>` for the parallel engine.

use ring_compete::{render_table, report_digest};
use ring_experiments::compete::{markdown_table, ratio_table};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let shards = args
        .iter()
        .position(|a| a == "--par")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.parse::<usize>()
                .expect("--par takes a shard count")
                .max(1)
        });
    let rows = ratio_table(shards);
    if markdown {
        print!("{}", markdown_table(&rows));
    } else {
        print!("{}", render_table(&rows));
    }
    println!("report digest: {:016x}", report_digest(&rows));
}
