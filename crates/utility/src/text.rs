//! The compact `kind:args` text form of a [`TimeUtility`]
//! (`sigmoid:412,3,0.024`), shared by the workload files, the `rushd`
//! wire protocol and its snapshots.

use crate::TimeUtility;

/// Renders a utility in the compact `kind:args` text form (e.g.
/// `sigmoid:412,3,0.024`). Round-trips exactly through
/// [`utility_from_text`]: parameters print in Rust's shortest-round-trip
/// `f64` notation.
pub fn utility_to_text(u: &TimeUtility) -> String {
    match *u {
        TimeUtility::Linear { budget, weight, beta } => format!("linear:{budget},{weight},{beta}"),
        TimeUtility::Sigmoid { budget, weight, beta } => {
            format!("sigmoid:{budget},{weight},{beta}")
        }
        TimeUtility::Constant { weight } => format!("constant:{weight}"),
        TimeUtility::Step { budget, weight } => format!("step:{budget},{weight}"),
    }
}

/// Parses the compact `kind:args` utility form (see [`utility_to_text`]).
/// Numbers may carry surrounding whitespace; every parameter passes the
/// class constructor's validation.
///
/// # Errors
///
/// A human-readable message naming the offending number, class or
/// parameter count; constructor validation errors pass through.
pub fn utility_from_text(s: &str) -> Result<TimeUtility, String> {
    let (kind, args) = s.split_once(':').unwrap_or((s, ""));
    let nums: Vec<f64> = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',')
            .map(|a| a.trim().parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad utility number: {e}"))?
    };
    let need = |n: usize| format!("{kind} needs {n} parameters, got {}", nums.len());
    match (kind, nums.as_slice()) {
        ("linear", &[budget, weight, beta]) => TimeUtility::linear(budget, weight, beta),
        ("sigmoid", &[budget, weight, beta]) => TimeUtility::sigmoid(budget, weight, beta),
        ("constant", &[weight]) => TimeUtility::constant(weight),
        ("step", &[budget, weight]) => TimeUtility::step(budget, weight),
        ("linear" | "sigmoid", _) => return Err(need(3)),
        ("constant", _) => return Err(need(1)),
        ("step", _) => return Err(need(2)),
        (other, _) => return Err(format!("unknown utility class {other}")),
    }
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_utility_classes_round_trip() {
        for u in [
            TimeUtility::linear(100.0, 5.0, 0.5).unwrap(),
            TimeUtility::sigmoid(100.0, 5.0, 0.5).unwrap(),
            TimeUtility::constant(3.0).unwrap(),
            TimeUtility::step(50.0, 2.0).unwrap(),
        ] {
            let text = utility_to_text(&u);
            let back = utility_from_text(&text).unwrap();
            assert_eq!(u, back, "{text}");
        }
    }

    /// The parser reads client text off the wire: every malformed or
    /// out-of-domain form is refused with a message naming the cause,
    /// never coerced into a utility.
    #[test]
    fn malformed_text_is_refused() {
        let mut rows: Vec<(String, &str)> = Vec::new();
        // NaN and ∞ in each parameter position of every class.
        for (kind, arity) in [("linear", 3), ("sigmoid", 3), ("constant", 1), ("step", 2)] {
            for pos in 0..arity {
                for bad in ["NaN", "inf", "-inf"] {
                    let args: Vec<&str> =
                        (0..arity).map(|i| if i == pos { bad } else { "1" }).collect();
                    rows.push((format!("{kind}:{}", args.join(",")), "invalid utility parameter"));
                }
            }
        }
        for (text, why) in [
            ("constant:0", "invalid utility parameter weight"),
            ("sigmoid:100,-2,0.5", "invalid utility parameter weight"),
            ("step:10,0", "invalid utility parameter weight"),
            ("linear:100,5,0", "invalid utility parameter beta"),
            ("sigmoid:100,5,-0.5", "invalid utility parameter beta"),
            ("linear:-1,5,0.5", "invalid utility parameter budget"),
            ("sigmoid:100,5,0.5,", "bad utility number"),
            ("constant:1,", "bad utility number"),
            ("step:1,,2", "bad utility number"),
            ("sigmoid:1e3x,5,0.5", "bad utility number"),
            ("sigmoid", "sigmoid needs 3 parameters, got 0"),
            ("sigmoid:100,5", "sigmoid needs 3 parameters, got 2"),
            ("constant:1,2", "constant needs 1 parameters, got 2"),
            ("step:5", "step needs 2 parameters, got 1"),
            ("warp:1", "unknown utility class warp"),
            ("", "unknown utility class "),
            ("Sigmoid:100,5,0.5", "unknown utility class Sigmoid"),
        ] {
            rows.push((text.to_string(), why));
        }
        for (text, why) in rows {
            match utility_from_text(&text) {
                Err(msg) => assert!(msg.contains(why), "{text:?}: {msg:?} lacks {why:?}"),
                Ok(u) => panic!("{text:?} must be refused, parsed as {u:?}"),
            }
        }
    }

    /// The accepted edge cases: whitespace around numbers, and a zero
    /// budget (a job due immediately).
    #[test]
    fn edge_cases_are_accepted() {
        for (text, want) in [
            ("sigmoid: 100 , 5,\t0.5 ", TimeUtility::sigmoid(100.0, 5.0, 0.5).unwrap()),
            ("constant: 2", TimeUtility::constant(2.0).unwrap()),
            ("linear:0,5,0.5", TimeUtility::linear(0.0, 5.0, 0.5).unwrap()),
            ("step:0,1", TimeUtility::step(0.0, 1.0).unwrap()),
            ("sigmoid:0,1,1e-3", TimeUtility::sigmoid(0.0, 1.0, 0.001).unwrap()),
        ] {
            assert_eq!(utility_from_text(text), Ok(want), "{text:?}");
        }
    }
}
