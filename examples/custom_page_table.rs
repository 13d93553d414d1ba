//! Extending the library: implement a *custom* page-table design — a
//! single-level "monolithic" table that maps the entire 48-bit space with
//! one gigantic node — and inspect its walks next to the built-in designs.
//!
//! This demonstrates the [`PageTable`] trait as an extension point: the
//! walker, PWCs and occupancy tooling all work on any implementation.
//!
//! ```text
//! cargo run --release --example custom_page_table
//! ```

use ndp_types::addr::PTE_SIZE;
use ndp_types::{PageSize, PtLevel, Vpn};
use ndpage::alloc::{FrameAllocator, FramePurpose};
use ndpage::occupancy::{LevelOccupancy, OccupancyReport};
use ndpage::pte::Pte;
use ndpage::table::{FaultKind, MapOutcome, PageTable, PageTableKind, Translation};
use ndpage::walk::{WalkPath, WalkStep};
use ndpage::Mechanism;
use std::collections::HashMap;

/// One flat array of PTEs indexed directly by VPN: every walk is a single
/// memory access, at the cost of a (here sparse-simulated) table covering
/// the whole virtual space. A useful thought-experiment endpoint for the
/// paper's "flatten levels" direction.
struct MonolithicTable {
    /// Sparse backing store standing in for the huge physical array.
    entries: HashMap<u64, Pte>,
    base: ndp_types::Pfn,
    mapped: u64,
}

impl MonolithicTable {
    fn new(alloc: &mut FrameAllocator) -> Self {
        // Reserve a token contiguous region to anchor PTE addresses.
        let base = alloc
            .alloc_contiguous(512, FramePurpose::PageTable)
            .expect("table reservation");
        MonolithicTable {
            entries: HashMap::new(),
            base,
            mapped: 0,
        }
    }
}

impl PageTable for MonolithicTable {
    fn kind(&self) -> PageTableKind {
        // Closest built-in classification; a real extension would extend
        // the enum, but the trait only uses this for reporting.
        PageTableKind::FlattenedL2L1
    }

    fn translate(&self, vpn: Vpn) -> Option<Translation> {
        self.entries.get(&vpn.as_u64()).map(|pte| Translation {
            pfn: pte.pfn(),
            size: PageSize::Size4K,
        })
    }

    fn map(&mut self, vpn: Vpn, alloc: &mut FrameAllocator) -> MapOutcome {
        if self.entries.contains_key(&vpn.as_u64()) {
            return MapOutcome::already_mapped();
        }
        let frame = alloc.alloc_frame(FramePurpose::Data);
        self.entries.insert(vpn.as_u64(), Pte::leaf(frame));
        self.mapped += 1;
        MapOutcome {
            newly_mapped: true,
            fault: Some(FaultKind::Minor4K),
            tables_allocated: 0,
        }
    }

    fn walk_path(&self, vpn: Vpn) -> Option<WalkPath> {
        self.translate(vpn)?;
        // One access: PTE at base + vpn * 8 (folded into the reserved
        // region for address realism).
        let offset = (vpn.as_u64() * PTE_SIZE) % (512 * 4096);
        Some(WalkPath::new(vec![WalkStep {
            addr: self.base.base().add(offset),
            level: PtLevel::FlatL2L1,
            group: 0,
        }]))
    }

    fn occupancy(&self) -> OccupancyReport {
        let mut report = OccupancyReport::new();
        report.set(
            PtLevel::FlatL2L1,
            LevelOccupancy {
                nodes: 1,
                valid_entries: self.mapped,
                capacity: 1 << 36,
            },
        );
        report
    }

    fn mapped_pages(&self) -> u64 {
        self.mapped
    }

    fn table_bytes(&self) -> u64 {
        512 * 4096
    }
}

fn main() {
    let mut alloc = FrameAllocator::new(1 << 30);
    let mut mono = MonolithicTable::new(&mut alloc);
    let mut flat = Mechanism::NdPage
        .build_impl(&mut alloc)
        .expect("built-in table");
    let mut radix = Mechanism::Radix
        .build_impl(&mut alloc)
        .expect("built-in table");

    let vpns: Vec<Vpn> = (0..5u64).map(|i| Vpn::new(i * 104_729 + 7)).collect();
    for &vpn in &vpns {
        mono.map(vpn, &mut alloc);
        flat.map(vpn, &mut alloc);
        radix.map(vpn, &mut alloc);
    }

    println!("Sequential PTE accesses per page-table walk:\n");
    println!("{:<28} {:>6} {:>9}", "design", "depth", "fetches");
    for (name, table) in [
        ("custom MonolithicTable", &mono as &dyn PageTable),
        ("NDPage flattened L2/L1", &flat as &dyn PageTable),
        ("x86-64 4-level radix", &radix as &dyn PageTable),
    ] {
        let path = table.walk_path(vpns[0]).expect("mapped");
        println!(
            "{:<28} {:>6} {:>9}",
            name,
            path.sequential_depth(),
            path.len()
        );
    }

    println!(
        "\nEvery design also reports occupancy:\n{}",
        mono.occupancy()
    );
}
