//! Sample summaries and the result format.

/// A percentile as reported: the level actually used, its value, and
/// the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Level in `(0, 1)`, e.g. `0.99`.
    pub level: f64,
    /// Sample value at that level (nearest rank).
    pub value: f64,
    /// Samples summarised.
    pub count: usize,
}

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
fn rank(sorted: &[f64], level: f64) -> f64 {
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    let i = ((level * sorted.len() as f64 - 1e-9).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

/// The percentile at `want`, or — when fewer than [`TAIL_SAMPLES`]
/// samples would lie beyond it — the highest level that has that many,
/// never below the median. `None` without samples.
pub fn tail_percentile(sorted: &[f64], want: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len() as f64;
    let supported = 1.0 - TAIL_SAMPLES as f64 / n;
    let level = want.min(supported).max(0.5);
    Some(Percentile {
        level,
        value: rank(sorted, level),
        count: sorted.len(),
    })
}

/// Samples per slice for [`sliced_percentile`]: enough for a p99 with
/// [`TAIL_SAMPLES`] beyond it.
pub const SLICE_SAMPLES: usize = 1000;

/// A percentile robust to bursts of host noise: the samples (in
/// completion order) are cut into contiguous slices of at least
/// [`SLICE_SAMPLES`], at most `max_slices` of them; each slice's
/// [`tail_percentile`] is taken and the median of those is reported,
/// with the lowest level any slice used and the total sample count.
/// Returns the percentile and the number of slices.
pub fn sliced_percentile(
    in_order: &[f64],
    want: f64,
    max_slices: usize,
) -> Option<(Percentile, usize)> {
    let slices = (in_order.len() / SLICE_SAMPLES).clamp(1, max_slices.max(1));
    let per = in_order.len() / slices;
    let mut levels = f64::INFINITY;
    let mut values = Vec::with_capacity(slices);
    for i in 0..slices {
        let end = if i + 1 == slices {
            in_order.len()
        } else {
            (i + 1) * per
        };
        let mut slice = in_order[i * per..end].to_vec();
        slice.sort_by(f64::total_cmp);
        let p = tail_percentile(&slice, want)?;
        levels = levels.min(p.level);
        values.push(p.value);
    }
    Some((
        Percentile {
            level: levels,
            value: median(&values)?,
            count: in_order.len(),
        },
        slices,
    ))
}

/// Share of all slots measured even when fewer are quiet.
pub const MIN_MEASURED: f64 = 0.1;

/// Which slots to measure, given each slot's host steal in clock ticks:
/// every quiet one (no tick stolen, so a quiet 50 ms slot lost less than
/// one 10 ms tick of either CPU to the hypervisor), topped up with the
/// least-stolen others to at least [`MIN_MEASURED`] of all. Where only
/// some slots of one steal level are needed, they are taken evenly
/// spaced over the run, so no part of it is favoured. Stolen CPU stalls
/// whichever thread holds it, so a stolen slot measures the neighbours,
/// not the program.
pub fn quiet_slots(steal: &[u64]) -> Vec<bool> {
    let floor = (steal.len() as f64 * MIN_MEASURED).ceil() as usize;
    let mut keep: Vec<bool> = steal.iter().map(|&s| s == 0).collect();
    let mut levels = steal.to_vec();
    levels.sort_unstable();
    levels.dedup();
    for level in levels {
        let have = keep.iter().filter(|&&k| k).count();
        if have >= floor {
            break;
        }
        let tied: Vec<usize> = (0..steal.len())
            .filter(|&i| !keep[i] && steal[i] == level)
            .collect();
        let need = (floor - have).min(tied.len());
        for j in 0..need {
            keep[tied[j * tied.len() / need]] = true;
        }
    }
    keep
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
/// Whether `name` fits the metric-name grammar: a letter or digit
/// first, then at most 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-';
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
/// Whether `unit` fits the unit grammar: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// A JSON number with all its digits (non-finite values become 0, which
/// JSON cannot otherwise carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_is_reported_when_ten_samples_lie_beyond_it() {
        let p = tail_percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.level, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.count, 1000);
        assert_eq!(ramp(1000).iter().filter(|&&v| v > p.value).count(), 10);
    }

    #[test]
    fn thin_tails_fall_back_to_the_highest_supported_level() {
        let p = tail_percentile(&ramp(200), 0.99).unwrap();
        assert!((p.level - 0.95).abs() < 1e-12, "{p:?}");
        assert_eq!(p.value, 190.0);
        assert_eq!(ramp(200).iter().filter(|&&v| v > p.value).count(), 10);
        // Too few for any tail: the median is the floor.
        let p = tail_percentile(&ramp(12), 0.99).unwrap();
        assert_eq!(p.level, 0.5);
        assert_eq!(p.value, 6.0);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn slices_take_the_median_of_their_percentiles() {
        // Three slices of 1000; one has a burst of slow samples.
        let mut v = ramp(1000);
        v.extend(ramp(1000).iter().map(|x| x + 1e6));
        v.extend(ramp(1000));
        let (p, slices) = sliced_percentile(&v, 0.99, 10).unwrap();
        assert_eq!(slices, 3);
        assert_eq!((p.level, p.value, p.count), (0.99, 990.0, 3000));
        // Too few for two slices: one slice, the plain percentile.
        let (p, slices) = sliced_percentile(&ramp(1500), 0.99, 10).unwrap();
        assert_eq!(slices, 1);
        assert_eq!(p.value, 1485.0);
        // The cap holds.
        assert_eq!(sliced_percentile(&ramp(50_000), 0.5, 20).unwrap().1, 20);
        assert_eq!(sliced_percentile(&[], 0.5, 20), None);
    }

    #[test]
    fn stolen_slots_are_left_out() {
        // All quiet: all measured.
        assert_eq!(quiet_slots(&[0, 0, 0, 0]), vec![true; 4]);
        // Stolen slots drop out while enough quiet ones remain.
        assert_eq!(
            quiet_slots(&[0, 3, 0, 4, 0]),
            vec![true, false, true, false, true]
        );
        // A noisy run still measures its least-stolen 10%.
        let keep = quiet_slots(&[3, 1, 5, 2, 1, 4, 6, 2, 3, 5, 1, 2, 4, 3, 2, 5, 6, 4, 2, 3]);
        let kept: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
        assert_eq!(kept, vec![1, 4]);
        // Ties at the cut are taken evenly spaced, not from the front.
        let keep = quiet_slots(&[1; 40]);
        let kept: Vec<usize> = (0..keep.len()).filter(|&i| keep[i]).collect();
        assert_eq!(kept, vec![0, 10, 20, 30]);
        assert!(quiet_slots(&[]).is_empty());
    }

    #[test]
    fn the_median_is_exact() {
        assert_eq!(tail_percentile(&ramp(9), 0.5).unwrap().value, 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["access_p50_us", "wire.codec_us", "a", "9-x.y_z"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["us", "ops/s", "%", "MiB", "count", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(1.203_456_789), "1.203456789");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
