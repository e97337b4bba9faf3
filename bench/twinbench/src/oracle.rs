//! Brute-force Chebyshev scan with its own loops and its own
//! normalisation: the reference every method's answer is checked against.
//! It shares no code with `Sweepline` or the verification pipeline, which
//! are under test.

/// Below this deviation a window is shifted, not scaled (the repository's
/// `MIN_STD_DEV` convention for constant windows).
const MIN_STD: f64 = 1e-12;

/// The series as the oracle sees it.
#[derive(Debug, Clone, Copy)]
pub enum OracleSeries<'a> {
    /// Values compared as they are (raw, or z-normalised once as a whole).
    Plain(&'a [f64]),
    /// Raw values; every window is z-normalised on its own before comparing.
    PerWindow(&'a [f64]),
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Whole-series z-normalisation (population deviation), done here.
pub fn whole_series_normalized(raw: &[f64]) -> Vec<f64> {
    let (mean, std) = mean_std(raw);
    let scale = if std < MIN_STD { 1.0 } else { 1.0 / std };
    raw.iter().map(|v| (v - mean) * scale).collect()
}

impl OracleSeries<'_> {
    fn len(&self) -> usize {
        match self {
            OracleSeries::Plain(v) | OracleSeries::PerWindow(v) => v.len(),
        }
    }
}

/// How a window relates to the query under ε, allowing for the last bits:
/// the engines normalise with a different summation order than the oracle,
/// so a distance within `tol` of ε may fall either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    In,
    Out,
    Borderline,
}

fn classify(window: impl Iterator<Item = f64>, query: &[f64], epsilon: f64, tol: f64) -> Verdict {
    let mut worst = 0.0_f64;
    for (w, q) in window.zip(query) {
        let d = (w - q).abs();
        if d > epsilon + tol {
            return Verdict::Out;
        }
        worst = worst.max(d);
    }
    if worst <= epsilon - tol {
        Verdict::In
    } else {
        Verdict::Borderline
    }
}

/// Checks a method's answer for one query: `positions` must be strictly
/// increasing, contain every window certainly within ε and none certainly
/// beyond it.  Returns a description of the first violation.
pub fn check_answer(
    series: OracleSeries<'_>,
    query: &[f64],
    epsilon: f64,
    positions: &[usize],
) -> Result<(), String> {
    let len = query.len();
    if len == 0 || series.len() < len {
        return Err("query longer than the series".into());
    }
    if let Some(w) = positions.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!(
            "positions not strictly increasing at {}, {}",
            w[0], w[1]
        ));
    }
    let tol = 1e-9 * (1.0 + epsilon.abs());
    let mut answer = positions.iter().copied().peekable();
    for start in 0..=series.len() - len {
        let verdict = match series {
            OracleSeries::Plain(values) => classify(
                values[start..start + len].iter().copied(),
                query,
                epsilon,
                tol,
            ),
            OracleSeries::PerWindow(values) => {
                let window = &values[start..start + len];
                let (mean, std) = mean_std(window);
                let scale = if std < MIN_STD { 1.0 } else { 1.0 / std };
                classify(
                    window.iter().map(|v| (v - mean) * scale),
                    query,
                    epsilon,
                    tol,
                )
            }
        };
        let reported = answer.next_if_eq(&start).is_some();
        match (verdict, reported) {
            (Verdict::In, false) => return Err(format!("twin at {start} missing from the answer")),
            (Verdict::Out, true) => {
                return Err(format!("position {start} reported but not a twin"))
            }
            _ => {}
        }
    }
    match answer.next() {
        Some(p) => Err(format!("position {p} is not a window start of the series")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Vec<f64> {
        (0..40).map(|i| ((i * 7) % 11) as f64).collect()
    }

    #[test]
    fn accepts_the_exact_answer_and_rejects_a_wrong_one() {
        let raw = ramp();
        let series = OracleSeries::Plain(&raw);
        let query = raw[11..15].to_vec();
        // Period 11: windows 0, 11, 22, 33 are identical.
        assert!(check_answer(series, &query, 0.5, &[0, 11, 22, 33]).is_ok());
        assert!(check_answer(series, &query, 0.5, &[0, 11, 33])
            .unwrap_err()
            .contains("22 missing"));
        assert!(check_answer(series, &query, 0.5, &[0, 5, 11, 22, 33])
            .unwrap_err()
            .contains("5 reported"));
        assert!(check_answer(series, &query, 0.5, &[11, 0, 22, 33]).is_err());
        assert!(check_answer(series, &query, 0.5, &[0, 11, 22, 33, 37]).is_err());
    }

    #[test]
    fn per_window_normalisation_ignores_offset_and_scale() {
        let mut raw = ramp();
        for v in raw.iter_mut().skip(20) {
            *v = *v * 3.0 + 100.0;
        }
        let series = OracleSeries::PerWindow(&raw);
        let (mean, std) = mean_std(&raw[0..4]);
        let query: Vec<f64> = raw[0..4].iter().map(|v| (v - mean) / std).collect();
        // Window 22 is window 0 scaled and shifted: a twin only per window.
        assert!(check_answer(series, &query, 1e-6, &[0, 11, 22, 33]).is_ok());
        assert!(check_answer(OracleSeries::Plain(&raw), &query, 1e-6, &[0, 11, 22, 33]).is_err());
    }

    #[test]
    fn a_distance_within_the_last_bits_of_epsilon_may_fall_either_way() {
        let values = [0.0, 1.0, 0.0, 1.0 + 1e-13, 0.0];
        let series = OracleSeries::Plain(&values);
        let query = [0.0, 0.0];
        assert!(check_answer(series, &query, 1.0, &[0, 1, 2, 3]).is_ok());
        assert!(check_answer(series, &query, 1.0, &[0, 1]).is_ok());
    }
}
