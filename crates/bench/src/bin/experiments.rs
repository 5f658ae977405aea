//! CLI entry point regenerating the E1–E11 experiment tables (one function
//! each in `sst_bench`).
//!
//! ```sh
//! cargo run -p sst-bench --release --bin experiments              # all, full size
//! cargo run -p sst-bench --release --bin experiments -- --quick   # trimmed grids
//! cargo run -p sst-bench --release --bin experiments -- E3 E4     # a subset
//! cargo run -p sst-bench --release --bin experiments -- --json out.json
//! ```

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--quick" {
            quick = true;
        } else if arg == "--json" {
            match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json requires a file path");
                    std::process::exit(2);
                }
            }
        } else if arg == "--help" || arg == "-h" {
            eprintln!("usage: experiments [--quick] [--json FILE] [E1 E2 … E11]");
            return;
        } else {
            ids.push(arg);
        }
    }
    let t0 = std::time::Instant::now();
    let tables = sst_bench::run_experiments_with(&ids, quick, |table| {
        println!("{}", table.render());
    });
    if let Some(path) = json_path {
        let json = sst_bench::tables_to_json(&tables);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("tables archived to {path}");
    }
    eprintln!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
