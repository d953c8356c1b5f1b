//! Table I: hardware overhead of morphable logging, plus the §IV-C SLDE
//! overhead arithmetic.
use morlog_bench::results::{self, ResultSink, SldeFlagOverhead, SldeSynthesis};
use morlog_bench::Table;
use morlog_encoding::overhead as slde;
use morlog_logging::overhead::HardwareOverhead;
use morlog_sim_core::LogConfig;

fn main() {
    // Pure arithmetic — nothing to sweep, but the numbers still land in
    // results/ alongside every other binary's records.
    let mut sink = ResultSink::new("tab01_overhead", 1);
    let o = HardwareOverhead::for_config(&LogConfig::default(), 16);
    println!("Table I — hardware overhead of morphable logging");
    let bytes = |n: usize| format!("{n} bytes");
    let lines = [
        (
            "log head/tail registers",
            "FF",
            bytes(o.log_registers_bytes),
        ),
        (
            "L1 cache extensions",
            "SRAM",
            format!("{} bits/line", o.l1_ext_bits_per_line),
        ),
        ("undo+redo buffer", "SRAM", bytes(o.undo_redo_buffer_bytes)),
        ("redo buffer", "SRAM", bytes(o.redo_buffer_bytes)),
        (
            "ulog counters (optional)",
            "FF",
            bytes(o.ulog_counters_bytes),
        ),
    ];
    let table = Table::new(28, [("type", 6), ("size", 18)]);
    let lines = lines.map(|(component, kind, size)| (component, vec![kind.to_string(), size]));
    print!("{}", table.render_lines("component", lines));
    sink.push(results::HardwareOverhead {
        log_registers_bytes: o.log_registers_bytes as u64,
        l1_ext_bits_per_line: o.l1_ext_bits_per_line as u64,
        undo_redo_buffer_bytes: o.undo_redo_buffer_bytes as u64,
        redo_buffer_bytes: o.redo_buffer_bytes as u64,
        ulog_counters_bytes: o.ulog_counters_bytes as u64,
    });
    println!();
    println!("SLDE capacity overheads (dirty flag, 1 flag bit per m bytes), §IV-C:");
    for m in [1u32, 2, 4] {
        println!(
            "  m={m}: undo+redo entry {:.3}%  redo entry {:.3}%  L1 line {:.3}%",
            slde::undo_redo_dirty_flag_overhead(m) * 100.0,
            slde::redo_dirty_flag_overhead(m) * 100.0,
            slde::l1_dirty_flag_overhead(m) * 100.0
        );
        sink.push(SldeFlagOverhead {
            m: m.into(),
            undo_redo_fraction: slde::undo_redo_dirty_flag_overhead(m),
            redo_fraction: slde::redo_dirty_flag_overhead(m),
            l1_fraction: slde::l1_dirty_flag_overhead(m),
        });
    }
    println!(
        "log-region flag overhead: {:.2}% (paper: <= 1.7%)",
        slde::log_region_flag_overhead() * 100.0
    );
    let synth = slde::SldeSynthesis::paper();
    println!(
        "SLDE codec synthesis (22 nm, carried constants): {:.1}K gates, <{}ns encode, {:.1}pJ/{:.1}pJ",
        synth.extra_gates / 1000.0,
        synth.encode_latency_ns,
        synth.encode_energy_pj,
        synth.decode_energy_pj
    );
    sink.push(SldeSynthesis {
        log_region_flag_fraction: slde::log_region_flag_overhead(),
        extra_gates: synth.extra_gates,
        encode_latency_ns: synth.encode_latency_ns,
        encode_energy_pj: synth.encode_energy_pj,
        decode_energy_pj: synth.decode_energy_pj,
    });
    sink.finish();
}
