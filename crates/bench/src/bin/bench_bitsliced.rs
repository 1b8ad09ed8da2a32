//! Scalar vs Sliced64 kernel timings on the structural PE grid, written
//! as machine-readable JSON to `BENCH_bitsliced.json` at the repo root.
//!
//! Both kernels are timed sequentially — `Accelerator::multiply_reference`
//! (Scalar) against `Accelerator::multiply_sequential` (Sliced64, which
//! the default config selects), one host thread, no rayon dispatch — so
//! the reported speedup measures the bitslicing transform alone (64
//! bitflow steps per u64 word op) and nothing else, mirroring the
//! `parallel_effective` honesty of `bench_json`: the JSON carries
//! `single_threaded: true` and the modeled cycle counts of both kernels,
//! which must be identical (the cycle model is host-independent; a
//! divergence aborts the run).

use apc_bench::{fmt_seconds, header, time_best};
use apc_bignum::Nat;
use cambricon_p::accelerator::{Accelerator, KernelBackend};
use cambricon_p::ArchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Row {
    bits: u64,
    scalar_seconds: f64,
    sliced_seconds: f64,
    cycles: u64,
    cycles_identical: bool,
    bit_identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.scalar_seconds / self.sliced_seconds
    }

    fn json(&self) -> String {
        format!(
            "{{\"bits\": {}, \"scalar_seconds\": {}, \"sliced_seconds\": {}, \"speedup\": {}, \"cycles\": {}, \"cycles_identical\": {}, \"bit_identical\": {}}}",
            self.bits,
            self.scalar_seconds,
            self.sliced_seconds,
            self.speedup(),
            self.cycles,
            self.cycles_identical,
            self.bit_identical
        )
    }

    fn print(&self) {
        println!(
            "{:>10} {:>12} {:>12} {:>8.2}x {:>8} {}",
            self.bits,
            fmt_seconds(self.scalar_seconds),
            fmt_seconds(self.sliced_seconds),
            self.speedup(),
            self.cycles,
            if self.cycles_identical && self.bit_identical {
                "exact"
            } else {
                "MISMATCH"
            }
        );
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(64);
    let acc = Accelerator::new(ArchConfig::default());
    assert_eq!(acc.kernel(), KernelBackend::Sliced64);

    header("Accelerator::multiply_sequential — Scalar vs Sliced64 kernels (1 host thread)");
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>8} {}",
        "bits", "scalar", "sliced64", "speedup", "cycles", "check"
    );
    let mut rows = Vec::new();
    for bits in [1024u64, 2048, 4096, 8192, 16384] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let s = acc.multiply_reference(&a, &b);
        let v = acc.multiply_sequential(&a, &b);
        let row = Row {
            bits,
            scalar_seconds: time_best(5, 10.0, || acc.multiply_reference(&a, &b)),
            sliced_seconds: time_best(20, 10.0, || acc.multiply_sequential(&a, &b)),
            cycles: s.cycles,
            cycles_identical: s.cycles == v.cycles
                && s.pe_passes == v.pe_passes
                && s.stages == v.stages
                && s.pe_slots == v.pe_slots
                && s.tally == v.tally,
            bit_identical: s.product == v.product,
        };
        row.print();
        rows.push(row);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"bitsliced\",");
    let _ = writeln!(json, "  \"kernel_backends\": [\"scalar\", \"sliced64\"],");
    let _ = writeln!(json, "  \"single_threaded\": true,");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", row.json());
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_bitsliced.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_bitsliced.json");
    println!();
    println!("wrote {}", out.display());

    assert!(
        rows.iter().all(|r| r.cycles_identical && r.bit_identical),
        "Sliced64 diverged from the Scalar oracle"
    );
}
