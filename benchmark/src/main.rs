//! `tempopr-benchmark`: see `README.md` beside this crate.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(tempopr_benchmark::cli::main_with_args(&args));
}
