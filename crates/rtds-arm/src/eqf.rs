//! Deadline assignment from end-to-end deadlines (paper §4.1, Eqs. 1–2).
//!
//! The monitor needs an individual deadline per subtask and per message so
//! it can measure slack locally; the paper derives them from the task's
//! end-to-end deadline with "a variant of the equal flexibility (EQF)
//! strategy proposed in \[KG97\]", fed by estimated execution times and
//! communication delays.
//!
//! Two variants are provided:
//!
//! * [`EqfVariant::Classic`] — canonical EQF: every component's budget is
//!   its estimate scaled by the common factor `D / (Σ eex + Σ ecd)`, so
//!   budgets **partition** the end-to-end deadline exactly. This is the
//!   resource manager's default, because the Fig. 5 admission check
//!   compares a *single stage's* predicted delay against *its own* budget
//!   and therefore needs budgets that sum to `D`.
//! * [`EqfVariant::PaperLiteral`] — Eqs. (1)–(2) exactly as printed, where
//!   subtask `i`'s deadline adds to its estimate a share of `D` minus only
//!   the *remaining* (stage `i` onward) work. Later stages receive
//!   progressively looser deadlines that do not partition `D`; shipped for
//!   fidelity and for the ablation bench.

use rtds_sim::time::SimDuration;

/// Which assignment rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(serde::Serialize, serde::Deserialize)]
pub enum EqfVariant {
    /// Proportional scaling; budgets partition the deadline.
    Classic,
    /// Eqs. (1)–(2) verbatim.
    PaperLiteral,
    /// Kao & Garcia-Molina's *equal slack* (EQS) strategy, the sibling of
    /// EQF in \[KG97\]: total slack `D − (Σ eex + Σ ecd)` is divided
    /// **equally** among components rather than proportionally. Budgets
    /// partition `D` like Classic, but short components get relatively
    /// more headroom. Negative slack (overload) is likewise split
    /// equally, floored at zero per component.
    EqualSlack,
}

/// Per-component deadline budgets for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineAssignment {
    /// Budget of each subtask (`dl(st_j)`), in pipeline order.
    pub subtask: Vec<SimDuration>,
    /// Budget of each inter-subtask message (`dl(m_j)`): entry `j` is the
    /// message from subtask `j` to subtask `j+1` (one fewer than stages;
    /// empty for single-stage tasks).
    pub message: Vec<SimDuration>,
    /// The variant that produced this assignment.
    pub variant: EqfVariant,
}

impl DeadlineAssignment {
    /// Combined budget of stage `j`: its inbound message (if any) plus its
    /// execution — the bound the monitor and Fig. 5 compare against.
    pub fn stage_budget(&self, j: usize) -> SimDuration {
        let msg = if j == 0 {
            SimDuration::ZERO
        } else {
            self.message[j - 1]
        };
        msg + self.subtask[j]
    }
}

/// Assigns deadlines given estimated execution times (`eex`, ms, one per
/// subtask) and estimated communication delays (`ecd`, ms, one per message
/// — `exec.len() - 1` of them), and the end-to-end deadline.
///
/// ```
/// use rtds_arm::eqf::{assign_deadlines, EqfVariant};
/// use rtds_sim::time::SimDuration;
///
/// // Two 10 ms subtasks joined by a 10 ms message, 300 ms end to end:
/// // classic EQF gives each component a third of the deadline.
/// let a = assign_deadlines(&[10.0, 10.0], &[10.0],
///     SimDuration::from_millis(300), EqfVariant::Classic);
/// assert_eq!(a.subtask[0], SimDuration::from_millis(100));
/// assert_eq!(a.message[0], SimDuration::from_millis(100));
/// assert_eq!(a.stage_budget(1), SimDuration::from_millis(200));
/// ```
///
/// # Panics
/// Panics if `exec` is empty, `comm.len() + 1 != exec.len()`, any estimate
/// is negative/non-finite, or the deadline is zero. Callers that may be
/// handed degenerate estimates (e.g. after a node crash wipes a task's
/// observations) should use [`try_assign_deadlines`] and fall back instead.
pub fn assign_deadlines(
    exec_ms: &[f64],
    comm_ms: &[f64],
    deadline: SimDuration,
    variant: EqfVariant,
) -> DeadlineAssignment {
    try_assign_deadlines(exec_ms, comm_ms, deadline, variant).unwrap_or_else(|e| panic!("{e}"))
}

/// The fallback both resource managers use when EQF rejects their
/// estimates: every subtask and message weighted equally, split by
/// `variant`'s rule.
pub(crate) fn uniform_assignment(
    n_stages: usize,
    deadline: SimDuration,
    variant: EqfVariant,
) -> DeadlineAssignment {
    assign_deadlines(
        &vec![1.0; n_stages],
        &vec![1.0; n_stages.saturating_sub(1)],
        deadline,
        variant,
    )
}

/// Why a deadline assignment could not be computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EqfError {
    /// The execution-estimate slice was empty: zero components would make
    /// every per-component share a division by zero.
    NoSubtasks,
    /// `comm.len() + 1 != exec.len()` — the pipeline shape is inconsistent.
    MessageCountMismatch {
        /// Number of subtask estimates supplied.
        subtasks: usize,
        /// Number of message estimates supplied.
        messages: usize,
    },
    /// The end-to-end deadline was zero.
    ZeroDeadline,
    /// An estimate was negative, NaN, or infinite; budgets derived from it
    /// would be NaN.
    InvalidEstimate,
}

impl std::fmt::Display for EqfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EqfError::NoSubtasks => write!(f, "no subtasks"),
            EqfError::MessageCountMismatch { subtasks, messages } => write!(
                f,
                "need one message between each pair of subtasks \
                 (got {subtasks} subtasks, {messages} messages)"
            ),
            EqfError::ZeroDeadline => write!(f, "zero end-to-end deadline"),
            EqfError::InvalidEstimate => write!(f, "estimates must be finite and >= 0"),
        }
    }
}

impl std::error::Error for EqfError {}

/// Non-panicking form of [`assign_deadlines`]: returns a typed error for
/// degenerate inputs instead of crashing the control plane. The resource
/// managers use this on their recovery paths, where a crashed node can
/// leave a task with no usable estimates.
pub fn try_assign_deadlines(
    exec_ms: &[f64],
    comm_ms: &[f64],
    deadline: SimDuration,
    variant: EqfVariant,
) -> Result<DeadlineAssignment, EqfError> {
    if exec_ms.is_empty() {
        return Err(EqfError::NoSubtasks);
    }
    if comm_ms.len() + 1 != exec_ms.len() {
        return Err(EqfError::MessageCountMismatch {
            subtasks: exec_ms.len(),
            messages: comm_ms.len(),
        });
    }
    if deadline.is_zero() {
        return Err(EqfError::ZeroDeadline);
    }
    if exec_ms.iter().chain(comm_ms).any(|e| !e.is_finite() || *e < 0.0) {
        return Err(EqfError::InvalidEstimate);
    }
    Ok(match variant {
        EqfVariant::Classic => classic(exec_ms, comm_ms, deadline),
        EqfVariant::PaperLiteral => paper_literal(exec_ms, comm_ms, deadline),
        EqfVariant::EqualSlack => equal_slack(exec_ms, comm_ms, deadline),
    })
}

fn equal_slack(exec_ms: &[f64], comm_ms: &[f64], deadline: SimDuration) -> DeadlineAssignment {
    let total: f64 = exec_ms.iter().sum::<f64>() + comm_ms.iter().sum::<f64>();
    let d_ms = deadline.as_millis_f64();
    let n_components = (exec_ms.len() + comm_ms.len()) as f64;
    let share = (d_ms - total) / n_components;
    let budget = |e: f64| SimDuration::from_millis_f64((e + share).max(0.0));
    DeadlineAssignment {
        subtask: exec_ms.iter().map(|&e| budget(e)).collect(),
        message: comm_ms.iter().map(|&c| budget(c)).collect(),
        variant: EqfVariant::EqualSlack,
    }
}

fn classic(exec_ms: &[f64], comm_ms: &[f64], deadline: SimDuration) -> DeadlineAssignment {
    let total: f64 = exec_ms.iter().sum::<f64>() + comm_ms.iter().sum::<f64>();
    let d_ms = deadline.as_millis_f64();
    let n = exec_ms.len();
    if total <= 0.0 {
        // Degenerate: nothing is estimated to take time; split evenly over
        // all components so every budget is positive.
        let comps = (2 * n - 1) as f64;
        let each = SimDuration::from_millis_f64(d_ms / comps);
        return DeadlineAssignment {
            subtask: vec![each; n],
            message: vec![each; n - 1],
            variant: EqfVariant::Classic,
        };
    }
    let ratio = d_ms / total;
    DeadlineAssignment {
        subtask: exec_ms
            .iter()
            .map(|e| SimDuration::from_millis_f64(e * ratio))
            .collect(),
        message: comm_ms
            .iter()
            .map(|c| SimDuration::from_millis_f64(c * ratio))
            .collect(),
        variant: EqfVariant::Classic,
    }
}

/// Eqs. (1)–(2) as printed. For subtask `i` (0-based), with `E_i = Σ_{j≥i}
/// eex_j`, `C_i = Σ_{j>i} ecd_j` (messages *after* subtask i):
///
/// `dl(st_i) = eex_i + (D − E_i − C_i) · eex_i / (E_i + C_i)`
///
/// and symmetrically for messages with the roles of `eex`/`ecd` swapped
/// (message `i`'s remaining set is messages `j ≥ i` and subtasks `j > i`).
fn paper_literal(exec_ms: &[f64], comm_ms: &[f64], deadline: SimDuration) -> DeadlineAssignment {
    let d = deadline.as_millis_f64();
    let n = exec_ms.len();
    let mut subtask = Vec::with_capacity(n);
    for i in 0..n {
        let e_rem: f64 = exec_ms[i..].iter().sum();
        let c_rem: f64 = if i < comm_ms.len() {
            comm_ms[i..].iter().sum()
        } else {
            0.0
        };
        let denom = e_rem + c_rem;
        let dl = if denom <= 0.0 {
            d
        } else {
            exec_ms[i] + (d - denom) * exec_ms[i] / denom
        };
        subtask.push(SimDuration::from_millis_f64(dl.max(0.0)));
    }
    let mut message = Vec::with_capacity(comm_ms.len());
    for i in 0..comm_ms.len() {
        let c_rem: f64 = comm_ms[i..].iter().sum();
        let e_rem: f64 = exec_ms[i + 1..].iter().sum();
        let denom = c_rem + e_rem;
        let dl = if denom <= 0.0 {
            d
        } else {
            comm_ms[i] + (d - denom) * comm_ms[i] / denom
        };
        message.push(SimDuration::from_millis_f64(dl.max(0.0)));
    }
    DeadlineAssignment {
        subtask,
        message,
        variant: EqfVariant::PaperLiteral,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis_f64(v)
    }

    #[test]
    fn classic_budgets_partition_the_deadline() {
        let a = assign_deadlines(
            &[10.0, 30.0, 20.0],
            &[5.0, 15.0],
            ms(990.0),
            EqfVariant::Classic,
        );
        let total: f64 = a
            .subtask
            .iter()
            .chain(a.message.iter())
            .map(|d| d.as_millis_f64())
            .sum();
        assert!((total - 990.0).abs() < 0.01, "sum {total}");
        // Proportionality: subtask 1 (30 ms of 80 total) gets 3/8 of D.
        assert!((a.subtask[1].as_millis_f64() - 990.0 * 30.0 / 80.0).abs() < 0.01);
    }

    #[test]
    fn classic_equal_estimates_get_equal_budgets() {
        let a = assign_deadlines(&[10.0, 10.0], &[10.0], ms(300.0), EqfVariant::Classic);
        assert_eq!(a.subtask[0], a.subtask[1]);
        assert_eq!(a.subtask[0], a.message[0]);
        assert_eq!(a.subtask[0], ms(100.0));
    }

    #[test]
    fn classic_overload_shrinks_budgets_below_estimates() {
        // Total work 2000 ms > deadline 990 ms: budgets scale down.
        let a = assign_deadlines(&[1000.0, 1000.0], &[0.0], ms(990.0), EqfVariant::Classic);
        assert!(a.subtask[0] < ms(1000.0));
        assert!((a.subtask[0].as_millis_f64() - 495.0).abs() < 0.01);
    }

    #[test]
    fn classic_degenerate_zero_estimates_split_evenly() {
        let a = assign_deadlines(&[0.0, 0.0], &[0.0], ms(900.0), EqfVariant::Classic);
        assert_eq!(a.subtask[0], ms(300.0));
        assert_eq!(a.message[0], ms(300.0));
    }

    #[test]
    fn single_stage_task_gets_whole_deadline() {
        let a = assign_deadlines(&[50.0], &[], ms(990.0), EqfVariant::Classic);
        assert_eq!(a.subtask.len(), 1);
        assert!(a.message.is_empty());
        assert_eq!(a.subtask[0], ms(990.0));
        assert_eq!(a.stage_budget(0), ms(990.0));
    }

    #[test]
    fn stage_budget_combines_message_and_execution() {
        let a = assign_deadlines(&[10.0, 10.0], &[20.0], ms(400.0), EqfVariant::Classic);
        assert_eq!(a.stage_budget(0), ms(100.0));
        assert_eq!(a.stage_budget(1), ms(300.0)); // 200 msg + 100 exec
    }

    #[test]
    fn paper_literal_matches_hand_computation() {
        // Worked example from the module docs: e = [1, 3], no messages
        // between? Eq needs one message; use c = [0].
        let a = assign_deadlines(&[1.0, 3.0], &[0.0], ms(8.0), EqfVariant::PaperLiteral);
        // i=0: E=4, C=0: dl = 1 + (8-4)*1/4 = 2.
        assert!((a.subtask[0].as_millis_f64() - 2.0).abs() < 1e-9);
        // i=1: E=3, C=0: dl = 3 + (8-3)*3/3 = 8.
        assert!((a.subtask[1].as_millis_f64() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn paper_literal_later_stages_get_looser_budgets_than_classic() {
        let e = [10.0, 10.0, 10.0];
        let c = [5.0, 5.0];
        let lit = assign_deadlines(&e, &c, ms(990.0), EqfVariant::PaperLiteral);
        let cls = assign_deadlines(&e, &c, ms(990.0), EqfVariant::Classic);
        assert!(lit.subtask[2] > cls.subtask[2]);
        let lit_total: f64 = lit
            .subtask
            .iter()
            .chain(lit.message.iter())
            .map(|d| d.as_millis_f64())
            .sum();
        assert!(lit_total > 990.0, "literal variant over-allocates: {lit_total}");
    }

    #[test]
    fn paper_literal_messages_assigned_symmetrically() {
        let a = assign_deadlines(&[10.0, 10.0], &[10.0], ms(300.0), EqfVariant::PaperLiteral);
        // Message 0: C_rem = 10, E_rem = 10 -> dl = 10 + (300-20)*10/20 = 150.
        assert!((a.message[0].as_millis_f64() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn equal_slack_divides_slack_evenly() {
        // e = [10, 30], c = [20]; D = 120: slack = 60, share = 20.
        let a = assign_deadlines(&[10.0, 30.0], &[20.0], ms(120.0), EqfVariant::EqualSlack);
        assert!((a.subtask[0].as_millis_f64() - 30.0).abs() < 1e-9);
        assert!((a.subtask[1].as_millis_f64() - 50.0).abs() < 1e-9);
        assert!((a.message[0].as_millis_f64() - 40.0).abs() < 1e-9);
        // Partitions D exactly.
        let sum: f64 = a.subtask.iter().chain(a.message.iter())
            .map(|d| d.as_millis_f64()).sum();
        assert!((sum - 120.0).abs() < 1e-6);
    }

    #[test]
    fn equal_slack_gives_short_components_relatively_more_headroom() {
        let eqs = assign_deadlines(&[5.0, 50.0], &[0.0], ms(165.0), EqfVariant::EqualSlack);
        let eqf = assign_deadlines(&[5.0, 50.0], &[0.0], ms(165.0), EqfVariant::Classic);
        // EQS: short stage gets 5 + ~36.7; EQF: 5 * 3 = 15.
        assert!(eqs.subtask[0] > eqf.subtask[0]);
        assert!(eqs.subtask[1] < eqf.subtask[1]);
    }

    #[test]
    fn equal_slack_overload_floors_at_zero() {
        // Work 300 > D 120: slack = -180, share = -60; the 10-ms stage
        // floors at zero rather than going negative.
        let a = assign_deadlines(&[10.0, 290.0], &[0.0], ms(120.0), EqfVariant::EqualSlack);
        assert_eq!(a.subtask[0], ms(0.0));
        assert!((a.subtask[1].as_millis_f64() - 230.0).abs() < 1e-9);
    }

    #[test]
    fn budgets_are_monotone_in_estimates() {
        let a = assign_deadlines(&[5.0, 50.0], &[1.0], ms(990.0), EqfVariant::Classic);
        assert!(a.subtask[1] > a.subtask[0]);
        assert!(a.subtask[0] > a.message[0]);
    }

    #[test]
    #[should_panic(expected = "one message between each pair")]
    fn mismatched_message_count_panics() {
        let _ = assign_deadlines(&[1.0, 1.0], &[], ms(100.0), EqfVariant::Classic);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_estimates_panic() {
        let _ = assign_deadlines(&[-1.0], &[], ms(100.0), EqfVariant::Classic);
    }

    #[test]
    fn try_assign_reports_each_degenerate_input() {
        let t = |e: &[f64], c: &[f64], d: f64| {
            try_assign_deadlines(e, c, ms(d), EqfVariant::Classic)
        };
        assert_eq!(t(&[], &[], 100.0), Err(EqfError::NoSubtasks));
        assert_eq!(
            t(&[1.0, 1.0], &[], 100.0),
            Err(EqfError::MessageCountMismatch { subtasks: 2, messages: 0 })
        );
        assert_eq!(t(&[1.0], &[], 0.0), Err(EqfError::ZeroDeadline));
        assert_eq!(t(&[f64::NAN], &[], 100.0), Err(EqfError::InvalidEstimate));
        assert_eq!(t(&[1.0], &[], 100.0).map(|a| a.subtask[0]), Ok(ms(100.0)));
    }

    #[test]
    fn try_assign_matches_panicking_form_on_valid_input() {
        for variant in [EqfVariant::Classic, EqfVariant::PaperLiteral, EqfVariant::EqualSlack] {
            let e = [10.0, 30.0, 20.0];
            let c = [5.0, 15.0];
            assert_eq!(
                try_assign_deadlines(&e, &c, ms(990.0), variant).unwrap(),
                assign_deadlines(&e, &c, ms(990.0), variant)
            );
        }
    }

    #[test]
    fn eqf_error_messages_name_the_problem() {
        assert_eq!(EqfError::NoSubtasks.to_string(), "no subtasks");
        assert!(EqfError::MessageCountMismatch { subtasks: 3, messages: 1 }
            .to_string()
            .contains("3 subtasks, 1 messages"));
        assert_eq!(EqfError::ZeroDeadline.to_string(), "zero end-to-end deadline");
        assert!(EqfError::InvalidEstimate.to_string().contains("finite"));
    }
}
