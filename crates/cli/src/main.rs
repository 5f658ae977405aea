//! Thin shell around [`sst_cli::commands::run`].

use sst_cli::commands::{run, usage, CliError};

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let result = sst_cli::args::parse(&tokens).map_err(CliError::from).and_then(|a| run(&a));
    match result {
        Ok(output) => print!("{output}"),
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage(tokens.first().map(String::as_str)));
            std::process::exit(2);
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
