//! Figures 16 and 17: average contiguity under memhog load.
//!
//! Figure 16 uses the default Linux setting (THS on, normal compaction)
//! with memhog fragmenting 0%, 25%, and 50% of memory; Figure 17 repeats
//! with THS off. The paper's headline observation: moderate load (25%)
//! can *increase* contiguity because it triggers the compaction daemon
//! more often, while heavy load (50%) reduces it.

use super::{ExperimentOptions, ExperimentOutput};
use crate::report::{f2, Table};
use crate::runner::{self, SweepCell};
use colt_workloads::scenario::Scenario;

/// The memhog fractions both figures sweep.
pub const MEMHOG_FRACTIONS: [f64; 3] = [0.0, 0.25, 0.50];

/// One benchmark's average contiguity per memhog level.
#[derive(Clone, Debug)]
pub struct MemhogRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Average contiguity at memhog 0% / 25% / 50%.
    pub averages: [f64; 3],
}

/// Results for one figure (one THS setting).
#[derive(Clone, Debug)]
pub struct MemhogFigure {
    /// True = Figure 16 (THS on); false = Figure 17 (THS off).
    pub ths: bool,
    /// Per-benchmark rows.
    pub rows: Vec<MemhogRow>,
    /// Cross-benchmark average per memhog level.
    pub averages: [f64; 3],
}

/// Runs one of the two figures.
pub fn run_figure(ths: bool, opts: &ExperimentOptions) -> MemhogFigure {
    let specs = opts.selected_benchmarks();
    let mut cells = Vec::new();
    for spec in &specs {
        for &fraction in &MEMHOG_FRACTIONS {
            let scenario = opts.scenario(if fraction == 0.0 {
                if ths { Scenario::default_linux() } else { Scenario::no_ths() }
            } else if ths {
                Scenario::default_with_memhog(fraction)
            } else {
                Scenario::no_ths_with_memhog(fraction)
            });
            cells.push(SweepCell::new(
                format!(
                    "fig16-17/{}/ths-{}/memhog({fraction})",
                    spec.name,
                    if ths { "on" } else { "off" }
                ),
                &scenario,
                spec,
                0,
                |workload| workload.contiguity().average_contiguity(),
            ));
        }
    }
    let averages = runner::expect_all(runner::run_cells_sweep(cells, &opts.sweep()));
    let rows: Vec<MemhogRow> = specs
        .iter()
        .zip(averages.chunks_exact(3))
        .map(|(spec, a)| MemhogRow { name: spec.name, averages: [a[0], a[1], a[2]] })
        .collect();
    let n = rows.len().max(1) as f64;
    let mut averages = [0.0f64; 3];
    for (i, slot) in averages.iter_mut().enumerate() {
        *slot = rows.iter().map(|r| r.averages[i]).sum::<f64>() / n;
    }
    MemhogFigure { ths, rows, averages }
}

/// Runs both figures and renders them.
pub fn run(opts: &ExperimentOptions) -> (Vec<MemhogFigure>, ExperimentOutput) {
    let figures = vec![run_figure(true, opts), run_figure(false, opts)];
    let mut tables = Vec::new();
    for fig in &figures {
        let (num, title) = if fig.ths {
            ("16", "THS on, normal compaction")
        } else {
            ("17", "THS off, normal compaction")
        };
        let mut table = Table::new(
            format!("Figure {num}: average contiguity with memhog load ({title})"),
            &["Benchmark", "no memhog", "memhog(25%)", "memhog(50%)"],
        );
        for r in &fig.rows {
            table.add_row(vec![
                r.name.to_string(),
                f2(r.averages[0]),
                f2(r.averages[1]),
                f2(r.averages[2]),
            ]);
        }
        table.add_row(vec![
            "Average".to_string(),
            f2(fig.averages[0]),
            f2(fig.averages[1]),
            f2(fig.averages[2]),
        ]);
        tables.push(table);
    }
    (figures, ExperimentOutput { id: "fig16-17", tables })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_load_reduces_contiguity_versus_moderate() {
        // Figure 16/17 macro shape: memhog(50%) sits below memhog(25%).
        let opts = ExperimentOptions::quick().with_benchmarks(&["Mcf", "Sjeng", "Mummer"]);
        let fig = run_figure(true, &opts);
        assert!(
            fig.averages[2] <= fig.averages[1] * 1.25,
            "memhog(50%) avg {:.1} should not exceed memhog(25%) avg {:.1} by much",
            fig.averages[2],
            fig.averages[1]
        );
    }

    #[test]
    fn output_has_both_figures() {
        let opts = ExperimentOptions::quick().with_benchmarks(&["Povray"]);
        let (figs, out) = run(&opts);
        assert_eq!(figs.len(), 2);
        assert!(figs[0].ths && !figs[1].ths);
        let text = out.render();
        assert!(text.contains("Figure 16"));
        assert!(text.contains("Figure 17"));
    }
}
