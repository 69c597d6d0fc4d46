//! `rebert` — the command-line interface.
//!
//! Run `rebert help` for usage; see `crates/cli/src/commands.rs` for the
//! subcommand implementations.

mod args;
mod commands;
mod io;
mod tracing;

fn main() {
    let parsed = match args::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    match commands::run(&parsed) {
        Ok(out) => io::print_output(&out, 0),
        Err(e) => {
            // A failed lint, or a netlist a verb refused for lint errors,
            // still prints its report to stdout (scripts parse it,
            // especially with --json); only the exit code carries the
            // verdict. Everything else is a plain error.
            if let Some(lint) = e.downcast_ref::<commands::LintFailure>() {
                io::print_output(lint, 1);
            } else {
                eprintln!("error: {e}");
            }
            std::process::exit(1);
        }
    }
}
