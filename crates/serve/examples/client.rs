//! A runnable wire-client snippet: start a daemon, pose one named and one
//! inline query, print the verdicts, and shut the daemon down.
//!
//! ```text
//! # terminal 1
//! cargo run --release -p leapfrog-serve --bin leapfrogd -- --addr 127.0.0.1:4617
//! # terminal 2
//! cargo run --release -p leapfrog-serve --example client -- 127.0.0.1:4617
//! ```
//!
//! Without an address argument the example spawns its own in-process
//! server on a free port, so it always runs.

use leapfrog_serve::{Client, Server, ServerOptions};

fn main() {
    let addr = match std::env::args().nth(1) {
        Some(addr) => addr,
        None => {
            // Self-contained mode: serve from this process.
            let server = Server::bind("127.0.0.1:0", ServerOptions::from_env().unwrap())
                .expect("bind a free port");
            let addr = server.local_addr().unwrap().to_string();
            std::thread::spawn(move || server.run().unwrap());
            println!("(spawned an in-process server on {addr})");
            addr
        }
    };
    let mut client = Client::connect(&addr).expect("connect to leapfrogd");

    // A named Table 2 row.
    let reply = client.check_named("Speculative loop").expect("named check");
    println!(
        "Speculative loop: equivalent={} ({} entailment checks, {:?} wall)",
        reply.outcome.is_equivalent(),
        reply.stats.entailment_checks,
        reply.stats.wall_time,
    );

    // An inline pair: a 4-bit extractor against a split version of itself.
    let reply = client
        .check_inline(
            "parser A { state s { extract(h, 4);
               select(h[0:1]) { 0b11 => accept; _ => reject; } } }",
            "s",
            "parser B { state s { extract(pre, 2); goto t }
                        state t { extract(suf, 2);
               select(pre) { 0b11 => accept; _ => reject; } } }",
            "s",
        )
        .expect("inline check");
    println!(
        "inline pair: equivalent={} (outcome JSON: {} bytes)",
        reply.outcome.is_equivalent(),
        reply.outcome_json.len(),
    );

    let stats = client.engine_stats().expect("stats");
    println!("engine stats: {}", stats.render());
    client.shutdown().expect("shutdown");
    println!("daemon shut down cleanly");
}
