//! The known-answer verdict checker.
//!
//! Generated family members are alarm-free by construction, and an injected
//! [`BugKind`] is a single defect of one error class. So a clean member (or
//! an edit of one) must get no alarm at all, and a bug member exactly one
//! alarm, of its kind. Anything else — including a silently empty alarm
//! list from a bad cache replay — is a failed request.

use astree_core::AlarmKind;
use astree_gen::BugKind;

/// What the generator guarantees about a request's source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Clean,
    Bug(BugKind),
}

/// The alarm class an injected bug must raise.
pub fn alarm_kind(bug: BugKind) -> AlarmKind {
    match bug {
        BugKind::DivByZero => AlarmKind::DivByZero,
        BugKind::OutOfBounds => AlarmKind::OutOfBounds,
        BugKind::IntOverflow => AlarmKind::IntOverflow,
    }
}

const ALL_KINDS: [AlarmKind; 7] = [
    AlarmKind::DivByZero,
    AlarmKind::IntOverflow,
    AlarmKind::FloatOverflow,
    AlarmKind::InvalidFloatOp,
    AlarmKind::ShiftRange,
    AlarmKind::OutOfBounds,
    AlarmKind::InvalidCast,
];

/// The kind of an alarm rendered as `line N: possible <kind> in `...``
/// (the form the serve daemon and fleet outcomes carry); `None` when the
/// line names no known kind.
pub fn parse_kind(line: &str) -> Option<AlarmKind> {
    ALL_KINDS.into_iter().find(|k| line.contains(&format!("possible {k} in")))
}

/// Checks a verdict against the known answer. `alarms` holds one entry per
/// reported alarm (`None` for one whose kind could not be read).
pub fn check(expect: Expect, alarms: &[Option<AlarmKind>]) -> Result<(), String> {
    match expect {
        Expect::Clean if alarms.is_empty() => Ok(()),
        Expect::Clean => Err(format!("clean program got {} alarm(s): {alarms:?}", alarms.len())),
        Expect::Bug(bug) => {
            let want = alarm_kind(bug);
            match alarms {
                [Some(k)] if *k == want => Ok(()),
                _ => Err(format!("want exactly one {want} alarm, got {alarms:?}")),
            }
        }
    }
}

/// [`check`] over rendered alarm lines.
pub fn check_lines(expect: Expect, lines: &[String]) -> Result<(), String> {
    let kinds: Vec<_> = lines.iter().map(|l| parse_kind(l)).collect();
    check(expect, &kinds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{member, BUG_KINDS};
    use astree_core::AnalysisSession;
    use astree_frontend::Frontend;

    fn line(kind: AlarmKind) -> String {
        format!("line 7: possible {kind} in `x = (a / b)`")
    }

    #[test]
    fn correct_verdicts_pass() {
        assert!(check(Expect::Clean, &[]).is_ok());
        for bug in BUG_KINDS {
            assert!(check_lines(Expect::Bug(bug), &[line(alarm_kind(bug))]).is_ok());
        }
    }

    #[test]
    fn fabricated_wrong_verdicts_fail() {
        let div = Expect::Bug(BugKind::DivByZero);
        // A missing alarm: what a bad replay reporting "0 alarms" looks like.
        assert!(check_lines(div, &[]).is_err());
        // An extra alarm, on a bug member and on a clean one.
        let extra = [line(AlarmKind::DivByZero), line(AlarmKind::IntOverflow)];
        assert!(check_lines(div, &extra).is_err());
        assert!(
            check_lines(div, &[line(AlarmKind::DivByZero), line(AlarmKind::DivByZero)]).is_err()
        );
        assert!(check_lines(Expect::Clean, &[line(AlarmKind::FloatOverflow)]).is_err());
        // The wrong kind.
        assert!(check_lines(div, &[line(AlarmKind::OutOfBounds)]).is_err());
        // An alarm whose kind cannot be read.
        assert!(check_lines(div, &["line 3: something else".to_string()]).is_err());
    }

    #[test]
    fn every_alarm_kind_round_trips_through_its_rendering() {
        for kind in ALL_KINDS {
            assert_eq!(parse_kind(&line(kind)), Some(kind));
        }
    }

    #[test]
    fn the_analyzer_meets_the_known_answer_on_small_members() {
        let bugs = BUG_KINDS.map(Some);
        for bug in [None].iter().chain(&bugs) {
            let req = member(3, 21, *bug);
            let program = Frontend::new().compile_str(&req.source).expect("member compiles");
            let result = AnalysisSession::builder(&program).build().run();
            let lines: Vec<String> = result.alarms.iter().map(|a| a.to_string()).collect();
            assert_eq!(check_lines(req.expect, &lines), Ok(()), "{}", req.name);
        }
    }
}
