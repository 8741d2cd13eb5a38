//! Plain-text table and bar-chart formatting for the paper reports in
//! [`crate::figures`].

/// Formats rows as a monospace table with a header line.
///
/// # Panics
/// Panics if any row's width differs from the header's.
#[must_use]
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), headers.len(), "row width must match headers");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    let mut out = vec![fmt_row(&header), fmt_row(&rule)];
    out.extend(rows.iter().map(|r| fmt_row(r)));
    out.join("\n")
}

/// Renders labelled values as a horizontal ASCII bar chart, scaled to
/// `width` characters for the largest value — the textual analogue of
/// the paper's bar figures.
///
/// # Example
///
/// ```
/// use orderlight_sim::report::bar_chart;
/// let chart = bar_chart(
///     &[("fence".to_string(), 4.0), ("orderlight".to_string(), 1.0)],
///     20,
/// );
/// assert!(chart.lines().next().unwrap().contains("####################"));
/// ```
///
/// Non-finite values (NaN, ±inf) render as zero-width bars instead of
/// poisoning the scale: the maximum is taken over finite values only,
/// and every bar is clamped to `width`.
///
/// # Panics
/// Panics if `width` is zero.
#[must_use]
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    assert!(width > 0, "chart width must be positive");
    let max = rows.iter().map(|(_, v)| *v).filter(|v| v.is_finite()).fold(0.0f64, f64::max);
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let value_w = rows.iter().map(|(_, v)| format!("{v:.3}").len()).max().unwrap_or(0);
    rows.iter()
        .map(|(label, v)| {
            let n = if max > 0.0 && v.is_finite() && *v > 0.0 {
                (((v / max) * width as f64).round() as usize).min(width)
            } else {
                0
            };
            format!("{label:<label_w$}  {:>value_w$}  {}", format!("{v:.3}"), "#".repeat(n))
                .trim_end()
                .to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Formats a float with three significant decimals.
#[must_use]
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a speedup as `N.NNx`.
#[must_use]
pub fn speedup(base: f64, improved: f64) -> String {
    if improved <= 0.0 {
        "-".to_string()
    } else {
        format!("{:.2}x", base / improved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["kernel", "time"],
            &[vec!["Add".into(), "1.5".into()], vec!["KMeans".into(), "12.25".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("kernel"));
        assert!(lines[2].starts_with("Add"));
        assert!(lines[3].starts_with("KMeans"));
    }

    #[test]
    fn bar_chart_scales_to_width() {
        let c = bar_chart(
            &[("a".to_string(), 10.0), ("bb".to_string(), 5.0), ("c".to_string(), 0.0)],
            10,
        );
        let lines: Vec<&str> = c.lines().collect();
        assert!(lines[0].ends_with("#".repeat(10).as_str()));
        assert!(lines[1].ends_with("#".repeat(5).as_str()));
        assert!(!lines[2].contains('#'));
        // Labels align.
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("bb"));
    }

    #[test]
    fn bar_chart_handles_all_zero() {
        let c = bar_chart(&[("x".to_string(), 0.0)], 8);
        assert!(!c.contains('#'));
    }

    #[test]
    fn bar_chart_survives_non_finite_values() {
        // NaN / inf must not poison the scale or explode a bar's width;
        // the finite value still gets its full-width bar.
        let c = bar_chart(
            &[
                ("nan".to_string(), f64::NAN),
                ("inf".to_string(), f64::INFINITY),
                ("neg".to_string(), f64::NEG_INFINITY),
                ("ok".to_string(), 2.0),
            ],
            10,
        );
        let lines: Vec<&str> = c.lines().collect();
        assert!(!lines[0].contains('#'), "NaN draws no bar: {}", lines[0]);
        assert!(!lines[1].contains('#'), "inf draws no bar: {}", lines[1]);
        assert!(!lines[2].contains('#'), "-inf draws no bar: {}", lines[2]);
        assert!(lines[3].ends_with("#".repeat(10).as_str()), "finite max fills: {}", lines[3]);
    }

    #[test]
    fn bar_chart_all_nan_is_flat() {
        let c = bar_chart(&[("a".to_string(), f64::NAN), ("b".to_string(), f64::NAN)], 8);
        assert!(!c.contains('#'));
    }

    #[test]
    fn speedup_formats() {
        assert_eq!(speedup(10.0, 2.0), "5.00x");
        assert_eq!(speedup(1.0, 0.0), "-");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_rows_panic() {
        let _ = format_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
