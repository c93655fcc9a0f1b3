//! Consistency between the two execution layers: the instruction-level
//! machine and the `xbrtime` fabric share one cost model
//! (`CostConfig::paper()`), so the same logical operation must cost the
//! same order of cycles in both — the property that lets the runtime's
//! figures stand in for instruction-level simulation.

use xbgas::sim::asm::assemble;
use xbgas::sim::cost::MachineConfig;
use xbgas::sim::machine::{Machine, RunExit};
use xbgas::xbrtime::{Fabric, FabricConfig};

/// Cycles for one warm remote 64-bit load at the ISA level (eld via OLB).
fn isa_remote_load_cycles() -> u64 {
    // Measure by running two programs differing by exactly one (warm) eld.
    let prog = |n_loads: usize| {
        let mut asm = String::from("lui t0, 0x8\neaddie e5, zero, 2\n");
        for _ in 0..n_loads {
            asm.push_str("eld a0, 0(t0)\n");
        }
        asm.push_str("li a7, 0\necall\n");
        asm
    };
    let run = |n_loads: usize| {
        let mut cfg = MachineConfig::paper();
        cfg.n_harts = 2;
        let mut m2 = Machine::new(cfg);
        let img = assemble(0x1000, &prog(n_loads)).unwrap();
        m2.load_words(0, 0x1000, &img.words);
        let exit = assemble(0x1000, "li a7, 0\necall").unwrap();
        m2.load_words(1, 0x1000, &exit.words);
        let s = m2.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        s.cycles[0]
    };
    run(3) - run(2)
}

/// Cycles for one warm remote 64-bit get at the runtime level.
fn runtime_remote_get_cycles() -> u64 {
    let report = Fabric::run(FabricConfig::paper(2), |pe| {
        let buf = pe.shared_malloc::<u64>(1);
        pe.barrier();
        let mut v = [0u64];
        let mut measured = 0;
        if pe.rank() == 0 {
            pe.get(&mut v, buf.whole(), 1, 1, 1); // warm
            let t0 = pe.cycles();
            pe.get(&mut v, buf.whole(), 1, 1, 1);
            measured = pe.cycles() - t0;
        }
        pe.barrier();
        measured
    });
    report.results[0]
}

#[test]
fn remote_word_access_costs_agree_across_layers() {
    let isa = isa_remote_load_cycles();
    let runtime = runtime_remote_get_cycles();
    // Same constants (OLB + occupancy + flight + remote DRAM) plus
    // layer-specific overheads (fetch/decode vs per-element software):
    // they must agree within 2x, not merely within an order of magnitude.
    let ratio = isa as f64 / runtime as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "ISA-level eld = {isa} cycles vs runtime get = {runtime} cycles (ratio {ratio:.2})"
    );
}

#[test]
fn both_layers_charge_remote_premium_over_local() {
    // ISA level: warm local vs warm remote eld.
    let run_kernel = |remote: bool| {
        let mut cfg = MachineConfig::paper();
        cfg.n_harts = 2;
        let mut m = Machine::new(cfg);
        let target = if remote { 2 } else { 0 };
        let asm = format!(
            "lui t0, 0x8\neaddie e5, zero, {target}\n\
             eld a0, 0(t0)\neld a0, 0(t0)\neld a0, 0(t0)\n\
             li a7, 0\necall\n"
        );
        let img = assemble(0x1000, &asm).unwrap();
        m.load_words(0, 0x1000, &img.words);
        let exit = assemble(0x1000, "li a7, 0\necall").unwrap();
        m.load_words(1, 0x1000, &exit.words);
        let s = m.run();
        assert_eq!(s.exit, RunExit::AllHalted);
        s.cycles[0]
    };
    assert!(run_kernel(true) > run_kernel(false));

    // Runtime level: warm local vs warm remote get.
    let report = Fabric::run(FabricConfig::paper(2), |pe| {
        let buf = pe.shared_malloc::<u64>(1);
        pe.barrier();
        let mut v = [0u64];
        let target = 1; // remote for PE0, self for PE1
        pe.get(&mut v, buf.whole(), 1, 1, target); // warm
        let t0 = pe.cycles();
        pe.get(&mut v, buf.whole(), 1, 1, target);
        pe.cycles() - t0
    });
    assert!(report.results[0] > report.results[1]);
}
