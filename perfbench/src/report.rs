//! The result line every run ends with.

use std::fmt::Write as _;

/// What one run measured: a name, a value and a unit per metric.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// A readable table (for the log) and, last, the one-line JSON result.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<36} {value:>16.6} {unit}");
        }
        println!(
            "{:<36} {:>16.6} fraction ({} of {} operations)",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured reads as null and fails the run's check.
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed
        );
    }
}
