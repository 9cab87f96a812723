//! Turing machine specification and reference interpreter.
//!
//! The reference interpreter exists to cross-validate the RDMA-compiled
//! machines: property tests run both on random inputs and demand
//! identical tapes, heads, and halting behavior.

use std::collections::HashMap;

/// Head movement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Move {
    /// One cell left.
    Left,
    /// One cell right.
    Right,
    /// Stay put.
    Stay,
}

/// One transition rule: in `state`, reading `read`, write `write`, move
/// `mv`, go to `next`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rule {
    /// Current state.
    pub state: u32,
    /// Symbol under the head.
    pub read: u32,
    /// Symbol to write.
    pub write: u32,
    /// Head movement.
    pub mv: Move,
    /// Next state.
    pub next: u32,
}

/// A Turing machine over symbols `0..symbols` and states `0..states`,
/// with a distinguished halting state.
#[derive(Clone, Debug)]
pub struct TuringMachine {
    /// Number of states (halt state included).
    pub states: u32,
    /// Alphabet size.
    pub symbols: u32,
    /// Start state.
    pub start: u32,
    /// Halting state (no rules fire from it).
    pub halt: u32,
    /// Transition rules.
    pub rules: Vec<Rule>,
}

/// Result of running a machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Final tape.
    pub tape: Vec<u32>,
    /// Final head position.
    pub head: usize,
    /// Final state.
    pub state: u32,
    /// Steps executed.
    pub steps: u64,
    /// Whether the machine reached the halt state (vs. running out of
    /// budget or falling off the tape).
    pub halted: bool,
}

impl TuringMachine {
    /// Validate the machine: rules in range, deterministic, and total
    /// over non-halting states (the RDMA compilation requires totality —
    /// an uncovered configuration would loop forever re-reading the same
    /// cell).
    pub fn validate(&self) -> Result<(), String> {
        if self.start >= self.states || self.halt >= self.states {
            return Err("start/halt state out of range".into());
        }
        let mut seen = HashMap::new();
        for r in &self.rules {
            if r.state >= self.states || r.next >= self.states {
                return Err(format!("rule {r:?}: state out of range"));
            }
            if r.read >= self.symbols || r.write >= self.symbols {
                return Err(format!("rule {r:?}: symbol out of range"));
            }
            if r.state == self.halt {
                return Err(format!("rule {r:?}: fires from the halt state"));
            }
            if seen.insert((r.state, r.read), r).is_some() {
                return Err(format!(
                    "nondeterministic: two rules for ({}, {})",
                    r.state, r.read
                ));
            }
        }
        for s in 0..self.states {
            if s == self.halt {
                continue;
            }
            for a in 0..self.symbols {
                if !seen.contains_key(&(s, a)) {
                    return Err(format!("no rule for state {s}, symbol {a}"));
                }
            }
        }
        Ok(())
    }

    /// Look up the rule for `(state, symbol)`.
    fn rule_for(&self, state: u32, symbol: u32) -> Option<&Rule> {
        self.rules
            .iter()
            .find(|r| r.state == state && r.read == symbol)
    }

    /// Reference interpreter: run on `tape` from `head`, at most
    /// `max_steps` steps. The tape does not grow; the head sticks at the
    /// edges (the compiled machine has the same finite-tape semantics).
    pub fn run(&self, tape: &[u32], head: usize, max_steps: u64) -> RunResult {
        let mut tape = tape.to_vec();
        let mut head = head.min(tape.len().saturating_sub(1));
        let mut state = self.start;
        let mut steps = 0;
        while steps < max_steps {
            if state == self.halt {
                return RunResult {
                    tape,
                    head,
                    state,
                    steps,
                    halted: true,
                };
            }
            let symbol = tape[head];
            let Some(rule) = self.rule_for(state, symbol) else {
                break;
            };
            tape[head] = rule.write;
            state = rule.next;
            match rule.mv {
                Move::Left => head = head.saturating_sub(1),
                Move::Right => head = (head + 1).min(tape.len() - 1),
                Move::Stay => {}
            }
            steps += 1;
        }
        let halted = state == self.halt;
        RunResult {
            tape,
            head,
            state,
            steps,
            halted,
        }
    }

    /// The classic 2-state, 2-symbol busy beaver (writes four 1s, halts
    /// after 6 steps). States: 0 = A, 1 = B, 2 = HALT.
    pub fn busy_beaver_2() -> TuringMachine {
        TuringMachine {
            states: 3,
            symbols: 2,
            start: 0,
            halt: 2,
            rules: vec![
                Rule {
                    state: 0,
                    read: 0,
                    write: 1,
                    mv: Move::Right,
                    next: 1,
                },
                Rule {
                    state: 0,
                    read: 1,
                    write: 1,
                    mv: Move::Left,
                    next: 1,
                },
                Rule {
                    state: 1,
                    read: 0,
                    write: 1,
                    mv: Move::Left,
                    next: 0,
                },
                Rule {
                    state: 1,
                    read: 1,
                    write: 1,
                    mv: Move::Stay,
                    next: 2,
                },
            ],
        }
    }

    /// Binary increment: tape holds a binary number *least-significant
    /// bit first*; the machine adds one and halts. States: 0 = carry,
    /// 1 = HALT.
    pub fn binary_increment() -> TuringMachine {
        TuringMachine {
            states: 2,
            symbols: 2,
            start: 0,
            halt: 1,
            rules: vec![
                // Carry through 1s, flip the first 0.
                Rule {
                    state: 0,
                    read: 1,
                    write: 0,
                    mv: Move::Right,
                    next: 0,
                },
                Rule {
                    state: 0,
                    read: 0,
                    write: 1,
                    mv: Move::Stay,
                    next: 1,
                },
            ],
        }
    }

    /// A deliberately non-halting machine: flips the cell forever.
    pub fn spinner() -> TuringMachine {
        TuringMachine {
            states: 2,
            symbols: 2,
            start: 0,
            halt: 1,
            rules: vec![
                Rule {
                    state: 0,
                    read: 0,
                    write: 1,
                    mv: Move::Stay,
                    next: 0,
                },
                Rule {
                    state: 0,
                    read: 1,
                    write: 0,
                    mv: Move::Stay,
                    next: 0,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_beaver_writes_four_ones() {
        let tm = TuringMachine::busy_beaver_2();
        tm.validate().unwrap();
        let res = tm.run(&[0; 9], 4, 100);
        assert!(res.halted);
        assert_eq!(res.steps, 6);
        assert_eq!(res.tape.iter().sum::<u32>(), 4);
    }

    #[test]
    fn binary_increment_adds_one() {
        let tm = TuringMachine::binary_increment();
        tm.validate().unwrap();
        // 3 (LSB-first: 1,1,0) + 1 = 4 (0,0,1).
        let res = tm.run(&[1, 1, 0, 0], 0, 100);
        assert!(res.halted);
        assert_eq!(res.tape, vec![0, 0, 1, 0]);
        // 0 + 1 = 1.
        let res = tm.run(&[0, 0, 0], 0, 100);
        assert_eq!(res.tape, vec![1, 0, 0]);
    }

    #[test]
    fn spinner_never_halts() {
        let tm = TuringMachine::spinner();
        tm.validate().unwrap();
        let res = tm.run(&[0, 0], 0, 1000);
        assert!(!res.halted);
        assert_eq!(res.steps, 1000);
    }

    #[test]
    fn validate_rejects_bad_machines() {
        let mut tm = TuringMachine::busy_beaver_2();
        tm.rules.push(Rule {
            state: 0,
            read: 0,
            write: 0,
            mv: Move::Stay,
            next: 0,
        });
        assert!(tm.validate().unwrap_err().contains("nondeterministic"));

        let mut tm = TuringMachine::busy_beaver_2();
        tm.rules.remove(0);
        assert!(tm.validate().unwrap_err().contains("no rule"));

        let mut tm = TuringMachine::busy_beaver_2();
        tm.rules[0].next = 99;
        assert!(tm.validate().unwrap_err().contains("out of range"));

        let mut tm = TuringMachine::busy_beaver_2();
        tm.rules[0].state = 2; // halt state
        assert!(tm.validate().unwrap_err().contains("halt"));
    }

    #[test]
    fn head_sticks_at_edges() {
        // A machine that always moves left halts... never, but the head
        // must not underflow.
        let tm = TuringMachine {
            states: 2,
            symbols: 2,
            start: 0,
            halt: 1,
            rules: vec![
                Rule {
                    state: 0,
                    read: 0,
                    write: 0,
                    mv: Move::Left,
                    next: 0,
                },
                Rule {
                    state: 0,
                    read: 1,
                    write: 1,
                    mv: Move::Left,
                    next: 0,
                },
            ],
        };
        let res = tm.run(&[0, 1], 1, 10);
        assert_eq!(res.head, 0);
        assert_eq!(res.steps, 10);
    }
}
