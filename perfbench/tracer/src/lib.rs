//! Traced replay of the `streamlab` CLI workloads for the benchmark in
//! `perfbench/`: the CLI's call sequence re-driven in-process through the
//! layers' public APIs, with a span around each call and a counting
//! allocator behind them. See `perfbench/README.md`.

pub mod alloc;
pub mod replay;
pub mod trace;
