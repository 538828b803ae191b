(** [fault-storm]: continuous fault-and-recovery load.

    One op is one fault trial: a one-trial [Scenario.record] batch
    (configs in turn over every scenario config, seeds split from the
    run seed), its trace through [Trace.encode]/[Trace.decode], and a
    [Scenario.replay] that must re-capture the identical trace.  A
    window is 250 trials on each of two closed-loop shards followed by
    a sanitized, sharded 50-trial [Soak.run].  Containment and trace
    sizes are over every trial; obs counts and the supervisor timeline
    come from the first window. *)

val run : Outcome.opts -> Outcome.t
