//! The standalone service binary.
//!
//! ```text
//! xlac-server [--addr HOST:PORT] [--workers N] [--queue-cap N]
//! ```
//!
//! `--workers` is the shard count (default: the machine's parallelism);
//! each connection's reader thread serves the shards it enqueues into.
//!
//! Prints the bound address on stdout (`listening on ADDR`) once ready,
//! then serves until the process is killed.

use xlac_server::{Server, ServerConfig};

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-cap" => {
                config.queue_cap =
                    value("--queue-cap")?.parse().map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--help" | "-h" => {
                return Err("usage: xlac-server [--addr HOST:PORT] [--workers N] \
                            [--queue-cap N]\n  --workers N    shard count (tenant % N); \
                            0 = available parallelism\n  --queue-cap N  per-shard queue \
                            depth before Overloaded"
                    .into())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(config)
}

fn main() {
    let config = match parse_args() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let server = match Server::spawn(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    // Serve until killed; the Server's threads do all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
