//! Known-bad fixture for `bounded-retry`: dispatch loops that never
//! consult the retry budget. Linted under a virtual `crates/core/src/`
//! path; fire markers tag every line that must produce a diagnostic.

fn naked_retry_loop(transport: &T, env: Envelope) {
    let mut tries = 0;
    loop {
        let reply = transport.dispatch(node, env.clone()); // FIRE
        if reply.is_ok() || tries > 3 {
            break;
        }
        tries += 1;
    }
}

fn widening_without_budget(pool: &[usize]) {
    let mut cursor = 0;
    while cursor < pool.len() {
        let outcome = run_recorded(transport, round, None, calls, report); // FIRE
        cursor += 1;
        if outcome.quorum_met() {
            break;
        }
    }
}

fn per_attempt_multicall(calls: Vec<(NodeId, Request)>) {
    let mut attempt = 0;
    while attempt < MAX_ATTEMPTS {
        let replies = transport.multicall(calls.clone()); // FIRE
        if !replies.is_empty() {
            return;
        }
        attempt += 1;
    }
}

fn unbudgeted_hedge_loop(link: &mut impl Link, slots: &mut [Slot]) {
    // The driver's idiom: a waiting loop that re-sends on the link.
    while slots.iter().any(|s| !s.done) {
        if link.recv(NEVER).is_none() {
            link.send(slots[0].node, &slots[0].env); // FIRE
        }
    }
}

fn channel_send_is_not_a_dispatch(tx: &Sender<u8>) {
    // Clean: a bare channel `send` puts nothing on the wire.
    loop {
        if tx.send(1).is_err() {
            break;
        }
    }
}

fn budgeted_retry_loop(transport: &T, env: Envelope, health: &NodeHealth) {
    // Clean: the loop body consults the budget before every re-issue.
    loop {
        if !health.try_spend(Lane::Foreground) {
            break;
        }
        let reply = transport.dispatch(node, env.clone());
        if reply.is_ok() {
            break;
        }
    }
}

fn one_shot_dispatch(transport: &T, env: Envelope) {
    // Clean: not in a loop — a single dispatch is not a retry.
    let _ = transport.dispatch(node, env);
}

fn iterator_fanout(calls: Vec<(NodeId, Envelope)>) {
    // Clean: a `for` loop is bounded by its iterator by construction —
    // this fan-out dispatches each distinct envelope exactly once.
    for (node, env) in calls {
        transport.dispatch(node, env);
    }
}

fn waivered_bounded_walk(levels: usize) {
    let mut l = 0;
    while l < levels {
        // tq-lint: allow(bounded-retry) -- each trapezoid level dispatches exactly once; the walk is bounded by the shape, not a retry.
        let outcome = run_recorded(transport, round_for(l), Some(l), calls_for(l), report);
        consume(outcome);
        l += 1;
    }
}

impl Transport for ForwardingShim {
    // Clean: the `for` in an `impl Trait for Type` header is not a loop;
    // a plain forwarding method dispatches once.
    fn dispatch(&self, node: NodeId, env: Envelope) -> Reply {
        self.inner.dispatch(node, env)
    }
}
