//! Weighted report reconstitution for SimPoint-sampled runs.
//!
//! SimPoint methodology: simulate each representative region, then
//! estimate the full run as the weight-blended combination of the region
//! results. Rather than hand-maintaining a field-by-field merge that
//! would rot as `SimReport` grows, the merge works generically over the
//! report's [`Codec`] value tree — every numeric leaf is a counter, so a
//! weighted sum of leaves *is* the weighted report.

use tlp_sim::serial::{Codec, Value};
use tlp_sim::SimReport;

/// Merges region reports into one estimate: every numeric leaf becomes
/// `round(Σ wᵢ · leafᵢ)`. Pass weights that already include any
/// scale-up factor (e.g. `cluster_weight × full_instructions /
/// region_instructions`) so the estimate is in full-run units.
///
/// # Panics
///
/// Panics when `reports` is empty, lengths differ, or the reports do not
/// share a JSON shape (impossible for reports from one simulator build).
#[must_use]
pub fn weighted_merge(reports: &[SimReport], weights: &[f64]) -> SimReport {
    assert!(!reports.is_empty(), "need at least one region report");
    assert_eq!(reports.len(), weights.len(), "one weight per report");
    let values: Vec<Value> = reports.iter().map(Codec::to_value).collect();
    let refs: Vec<&Value> = values.iter().collect();
    let merged = merge(&refs, weights);
    SimReport::from_value(&merged).expect("merged tree keeps the report shape")
}

fn merge(values: &[&Value], weights: &[f64]) -> Value {
    match values[0] {
        Value::Num(_) => {
            let sum: f64 = values
                .iter()
                .zip(weights)
                .map(|(v, w)| match v {
                    Value::Num(n) => *n as f64 * w,
                    _ => panic!("report shapes diverge at a numeric leaf"),
                })
                .sum();
            Value::Num(if sum <= 0.0 { 0 } else { sum.round() as u64 })
        }
        Value::Str(s) => Value::Str(s.clone()),
        Value::Arr(first) => {
            let arrs: Vec<&Vec<Value>> = values
                .iter()
                .map(|v| match v {
                    Value::Arr(a) if a.len() == first.len() => a,
                    _ => panic!("report shapes diverge at an array"),
                })
                .collect();
            Value::Arr(
                (0..first.len())
                    .map(|i| {
                        let elems: Vec<&Value> = arrs.iter().map(|a| &a[i]).collect();
                        merge(&elems, weights)
                    })
                    .collect(),
            )
        }
        Value::Obj(first) => {
            let objs: Vec<&Vec<(String, Value)>> = values
                .iter()
                .map(|v| match v {
                    Value::Obj(o) if o.len() == first.len() => o,
                    _ => panic!("report shapes diverge at an object"),
                })
                .collect();
            Value::Obj(
                first
                    .iter()
                    .enumerate()
                    .map(|(i, (key, _))| {
                        let fields: Vec<&Value> = objs
                            .iter()
                            .map(|o| {
                                assert_eq!(&o[i].0, key, "report field order diverges");
                                &o[i].1
                            })
                            .collect();
                        (key.clone(), merge(&fields, weights))
                    })
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlp_sim::serial;
    use tlp_sim::{System, SystemConfig};
    use tlp_trace::{Reg, TraceRecord, VecTrace};

    fn small_report(salt: u64) -> SimReport {
        let recs: Vec<TraceRecord> = (0..512u64)
            .map(|i| {
                if i % 5 == 4 {
                    TraceRecord::branch(0x410, true, 0x400, None)
                } else {
                    TraceRecord::load(
                        0x400 + (i % 4) * 4,
                        (0x10_0000 + i * 64) ^ (salt << 8),
                        8,
                        Reg(1),
                        [None, None],
                    )
                }
            })
            .collect();
        let trace = VecTrace::looping("w", recs);
        let setup = tlp_sim::engine::CoreSetup::new(Box::new(trace));
        System::new(SystemConfig::test_tiny(1), vec![setup]).run(500, 2_000)
    }

    #[test]
    fn identity_weight_reproduces_the_report() {
        let r = small_report(1);
        let merged = weighted_merge(std::slice::from_ref(&r), &[1.0]);
        assert_eq!(
            serial::report_to_json(&merged),
            serial::report_to_json(&r),
            "weight 1.0 must be the identity"
        );
    }

    #[test]
    fn equal_halves_of_identical_reports_reproduce_it() {
        let r = small_report(2);
        let merged = weighted_merge(&[r.clone(), r.clone()], &[0.5, 0.5]);
        assert_eq!(serial::report_to_json(&merged), serial::report_to_json(&r));
    }

    #[test]
    fn weights_scale_counters() {
        let r = small_report(3);
        let merged = weighted_merge(std::slice::from_ref(&r), &[2.0]);
        assert_eq!(merged.total_cycles, r.total_cycles * 2);
    }

    #[test]
    fn blends_distinct_regions() {
        let (a, b) = (small_report(1), small_report(9));
        let merged = weighted_merge(&[a.clone(), b.clone()], &[0.25, 0.75]);
        let expect = (a.total_cycles as f64 * 0.25 + b.total_cycles as f64 * 0.75).round() as u64;
        assert_eq!(merged.total_cycles, expect);
    }
}
