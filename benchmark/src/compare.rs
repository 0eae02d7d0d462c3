//! `compare a.json b.json`: the regression rule, applied to two result
//! sets written by `run`.
//!
//! Per (workload, end-to-end metric): both medians, how much worse `b`
//! is than `a` as a share of `a`, the metric's bound, and a verdict.

use crate::json::Value;
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what `BENCHMARK.json` declares and `compare`
/// enforces.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of `a`'s median by which `b` may be worse.
    pub bound: f64,
}

pub const END_TO_END: [Spec; 4] = [
    Spec {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    Spec {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    Spec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    Spec {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.20,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// The rounds spread wider than the bound and the two sets' ranges
    /// overlap: the data cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `(min, max)` of a sample.
pub fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// The verdict for one metric from the two sets' per-round values.
pub fn verdict(spec: &Spec, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let (a_lo, a_hi) = range(a);
    let (b_lo, b_hi) = range(b);
    let (all_better, all_worse) = match spec.better {
        Better::Lower => (b_hi < a_lo, b_lo > a_hi),
        Better::Higher => (b_lo > a_hi, b_hi < a_lo),
    };
    let over = worse_by(spec.better, ma, mb) > spec.bound;
    // Disjoint ranges settle it whatever the spread: every run of one
    // side reads better than every run of the other.
    if all_better {
        return Verdict::Ok;
    }
    if all_worse {
        return if over {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let spread = ((a_hi - a_lo) / ma).max((b_hi - b_lo) / mb);
    if spread > spec.bound {
        Verdict::Unresolved
    } else if over {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values_of(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn failed_share(set: &Value, workload: &str) -> Option<f64> {
    let w = set.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Prints the table; `Ok(true)` iff nothing regressed.
pub fn compare(a: &Value, b: &Value, out: &mut dyn std::io::Write) -> Result<bool, String> {
    let io = |e: std::io::Error| e.to_string();
    // Runs of another length, or another number of them, measure
    // something else.
    for key in ["schema", "seconds", "rounds"] {
        let of = |set: &Value| set.get(key).and_then(Value::as_f64);
        if of(a).is_none() || of(a) != of(b) {
            return Err(format!("the two sets differ in `{key}`: not comparable"));
        }
    }
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("first file has no `workloads` object")?;
    writeln!(
        out,
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    )
    .map_err(io)?;
    let mut clean = true;
    for workload in workloads.keys() {
        for spec in &END_TO_END {
            let va = values_of(a, workload, spec.name)
                .ok_or_else(|| format!("{workload}/{} missing in the first file", spec.name))?;
            let vb = values_of(b, workload, spec.name)
                .ok_or_else(|| format!("{workload}/{} missing in the second file", spec.name))?;
            let v = verdict(spec, &va, &vb);
            clean &= v != Verdict::Regressed;
            writeln!(
                out,
                "{:<20} {:<14} {:>14.3} {:>14.3} {:>8.1}% {:>6.0}%  {}",
                workload,
                spec.name,
                median(&va),
                median(&vb),
                100.0 * worse_by(spec.better, median(&va), median(&vb)),
                100.0 * spec.bound,
                v.as_str()
            )
            .map_err(io)?;
        }
        // Bound 0: any rise in the share of failed ops regresses.
        let fa = failed_share(a, workload).ok_or_else(|| format!("{workload}: no counts"))?;
        let fb = failed_share(b, workload).ok_or_else(|| format!("{workload}: no counts"))?;
        let v = if fb > fa {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        clean &= v != Verdict::Regressed;
        writeln!(
            out,
            "{:<20} {:<14} {:>14.6} {:>14.6} {:>9} {:>6.0}%  {}",
            workload,
            "failed_ops_share",
            fa,
            fb,
            "",
            0.0,
            v.as_str()
        )
        .map_err(io)?;
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER_10: Spec = Spec {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER_10: Spec = Spec {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn within_bound_is_ok() {
        assert_eq!(
            verdict(&LOWER_10, &[100.0, 101.0, 102.0], &[104.0, 105.0, 103.0]),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                &HIGHER_10,
                &[1000.0, 1010.0, 990.0],
                &[960.0, 1005.0, 950.0]
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_bound_with_tight_rounds_is_regressed() {
        assert_eq!(
            verdict(&LOWER_10, &[100.0, 101.0, 102.0], &[115.0, 116.0, 114.0]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&HIGHER_10, &[1000.0, 1010.0, 990.0], &[850.0, 860.0, 840.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn overlapping_ranges_wider_than_the_bound_are_unresolved() {
        // b's median is 20 % worse, but a's own rounds spread 35 %.
        assert_eq!(
            verdict(&LOWER_10, &[100.0, 101.0, 135.0], &[121.0, 120.0, 122.0]),
            Verdict::Unresolved
        );
        // Same medians, one noisy round: still not "unchanged".
        assert_eq!(
            verdict(&LOWER_10, &[100.0, 100.0, 100.0], &[100.0, 100.0, 140.0]),
            Verdict::Unresolved
        );
    }

    #[test]
    fn disjoint_ranges_settle_it_despite_the_spread() {
        // Every run of b is better than every run of a.
        assert_eq!(
            verdict(&LOWER_10, &[100.0, 120.0, 140.0], &[50.0, 60.0, 90.0]),
            Verdict::Ok
        );
        // Every run of b is worse, and by more than the bound.
        assert_eq!(
            verdict(&LOWER_10, &[100.0, 120.0, 140.0], &[200.0, 260.0, 300.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn compare_reads_sets_and_flags_failed_ops() {
        let set = |p50: &str, failed: u64| {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|s| {
                    let values = if s.name == "op_p50_us" {
                        p50
                    } else {
                        "[5, 5, 5]"
                    };
                    format!("\"{}\": {{\"values\": {values}}}", s.name)
                })
                .collect();
            crate::json::parse(&format!(
                "{{\"schema\": 1, \"seconds\": 10, \"rounds\": 3, \
                 \"workloads\": {{\"w\": {{\"attempted\": 100, \"failed\": {failed}, \
                 \"end_to_end\": {{{}}}}}}}}}",
                metrics.join(", ")
            ))
            .unwrap()
        };
        let base = set("[100, 101, 102]", 0);
        let mut sink = Vec::new();
        assert!(compare(&base, &set("[103, 104, 105]", 0), &mut sink).unwrap());
        assert!(!compare(&base, &set("[130, 131, 132]", 0), &mut sink).unwrap());
        assert!(!compare(&base, &set("[100, 101, 102]", 1), &mut sink).unwrap());
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("regressed") && text.contains("failed_ops_share"));
        // A set that lacks a workload, or holds runs of another length,
        // is an error, not a pass.
        let header = |seconds: u32| {
            crate::json::parse(&format!(
                "{{\"schema\": 1, \"seconds\": {seconds}, \"rounds\": 3, \"workloads\": {{}}}}"
            ))
            .unwrap()
        };
        let err = compare(&base, &header(10), &mut Vec::new()).unwrap_err();
        assert!(err.contains("missing in the second file"), "{err}");
        let err = compare(&base, &header(5), &mut Vec::new()).unwrap_err();
        assert!(err.contains("`seconds`"), "{err}");
    }
}
