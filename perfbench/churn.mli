(** [enclave-churn]: Zipf(s=1.1) control-plane churn over a booted
    tenant population, with loadgen's op mix and admission defaults.

    Set-up builds one node per shard and boots every tenant.  The
    timed phase is closed-loop, one driver per shard: create, destroy,
    XEMEM export/attach/detach, IPI grant/revoke and a one-load/store
    [work] op, picked per tenant exactly as [covirt-ctl loadgen] does.
    The timed phase is a series of windows, each a fixed number of ops
    on every shard.  The first [prefix_ops] ops of every shard are a
    fixed, seed-derived sequence; simulated latencies and obs counts
    come from it.  The
    leak equalities and [Verifier.run] audit the node every
    [audit_every] ops and at quiesce. *)

type spec = {
  tenants : int;
  shards : int;
  zipf_s : float;
  prefix_ops : int;  (** per shard *)
  window_ops : int;  (** per shard; one window runs every shard once *)
  audit_every : int;  (** per shard *)
  max_in_flight : int;
  bucket_capacity : int;
  settle_ops : int;
  tenant_mib : int;
}

val full : spec
(** 1024 tenants in 4 shards, windows of 1024 ops per shard, 16384
    prefix ops per shard (65536 in all), an audit every 4096 ops,
    loadgen's admission defaults. *)

val tiny : spec
(** 16 tenants in 2 shards, 64 prefix ops per shard in windows of
    32: the self-test size. *)

val kinds : string list
(** The span names of the timed control calls: hobbes.launch_enclave,
    pisces.destroy, hobbes.export_window, xemem.attach, xemem.detach,
    hobbes.grant_vector_pair, pisces.revoke_ipi_vector, kitten.work and
    core.admission. *)

val run : Outcome.opts -> Outcome.t
(** Runs {!full}, or {!tiny} when [opts.tiny]. *)
