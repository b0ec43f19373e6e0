//! What the reporting bins share: `fig1` and `fig2`'s `--arch`/`--csv`
//! command line, panel loop and panel table, and the §5 ratios `all`
//! prints.
//!
//! Reached by: every `--bin` that `scripts/reproduce_all.sh` runs.

use archgraph_core::experiment::Series;
use archgraph_core::report::{fmt_seconds, ratios, series_csv, Table};
use archgraph_core::run::{RunConfig, Scope};

use crate::cells::MachineKind;
use crate::guard::series_or_exit;
use crate::scale::{scale_or_usage, usage_error, Scale};
use crate::sweep::{CellFailure, PanelSweep};

/// The binaries' one read of the environment's run configuration:
/// `ARCHGRAPH_FAULTS` and `ARCHGRAPH_MAX_CYCLES`, parsed before anything
/// runs and put in force on the main thread until the guard drops (a sweep
/// carries it to its pool threads). A malformed value prints the error and
/// `usage` and exits 2: a bad plan must never silently run a clean
/// experiment.
pub fn enter_env_config(usage: &str) -> Scope {
    RunConfig::from_vars(|k| std::env::var(k).ok())
        .unwrap_or_else(|e| usage_error(&e, usage))
        .enter()
}

/// `[smoke|default|full] [--arch mta|smp|both] [--csv]`, parsed strictly.
pub struct FigureArgs {
    /// The size preset.
    pub scale: Scale,
    /// The panels to run, in print order (MTA is the left panel).
    pub machines: Vec<MachineKind>,
    /// Whether to print every series as CSV after the panels.
    pub csv: bool,
}

impl FigureArgs {
    /// Parse the process's arguments; anything unrecognized prints the
    /// error and `usage`, and exits 2.
    pub fn parse(usage: &str) -> FigureArgs {
        use MachineKind::{Mta, Smp};
        let mut rest = Vec::new();
        let mut machines = vec![Mta, Smp];
        let mut csv = false;
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--arch" => {
                    machines = match it.next().as_deref() {
                        Some("mta") => vec![Mta],
                        Some("smp") => vec![Smp],
                        Some("both") => vec![Mta, Smp],
                        Some(v) => usage_error(&format!("unrecognized --arch value `{v}`"), usage),
                        None => usage_error("--arch needs a value", usage),
                    }
                }
                "--csv" => csv = true,
                _ => rest.push(a),
            }
        }
        FigureArgs {
            scale: scale_or_usage(&rest, usage),
            machines,
            csv,
        }
    }

    /// Sweep each requested panel and hand its title ("MTA", "SMP") and
    /// series to `print_panel`, then print the CSV block if asked for.
    /// Returns the cells that failed.
    pub fn run_panels(
        &self,
        sweep: impl Fn(Scale, MachineKind) -> PanelSweep,
        print_panel: impl Fn(&str, &[Series]),
    ) -> Vec<CellFailure> {
        let mut all = Vec::new();
        let mut failures = Vec::new();
        for &machine in &self.machines {
            let title = machine.name().to_uppercase();
            eprintln!("running {title} panel ({:?})...", self.scale);
            let sw = sweep(self.scale, machine);
            print_panel(&title, &sw.series);
            all.extend(sw.series);
            failures.extend(sw.failures);
        }
        if self.csv {
            println!("\n{}", series_csv(&all));
        }
        failures
    }
}

/// One panel's table: a row per `x`, a column per `p`, each entry read
/// from the series `label(p)` names and left blank where the cell failed.
pub fn panel_table(
    series: &[Series],
    x_name: &str,
    xs: &[usize],
    procs: &[usize],
    label: impl Fn(usize) -> String,
) -> Table {
    let head = std::iter::once(x_name.to_string());
    let mut t = Table::new(head.chain(procs.iter().map(|p| format!("p={p}"))));
    for &x in xs {
        let at = |&p: &usize| {
            let label = label(p);
            series.iter().find(|s| s.label == label)?.at(x, p)
        };
        let times = procs
            .iter()
            .map(|p| at(p).map(fmt_seconds).unwrap_or_default());
        t.row(std::iter::once(format!("{x}")).chain(times));
    }
    t
}

/// The five §5 ratios at `p` processors, each as (mean over the sweep's
/// sizes, the paper's value): SMP Random / Ordered, MTA Random / Ordered,
/// then SMP / MTA on ordered lists, on random lists and on connected
/// components. `series` holds both figures' panels; a missing series
/// exits 2 (`guard::series_or_exit`).
pub fn headline_ratios(p: usize, series: &[Series]) -> [(f64, &'static str); 5] {
    let mean = |num: &str, den: &str| {
        let find = |name: &str| series_or_exit(series, &format!("{name} p={p}"));
        let r = ratios(find(num), find(den));
        r.iter().map(|&(_, _, x)| x).sum::<f64>() / r.len().max(1) as f64
    };
    [
        (mean("SMP Random", "SMP Ordered"), "3-4x"),
        (mean("MTA Random", "MTA Ordered"), "~1x"),
        (mean("SMP Ordered", "MTA Ordered"), "~10x"),
        (mean("SMP Random", "MTA Random"), "~35x"),
        (mean("SMP CC", "MTA CC"), "5-6x"),
    ]
}
