(** In-memory span recorder for the traced run.

    Every public layer call the benchmark makes is bracketed with
    {!wrap}.  A span has a name, start, end, parent span and op id;
    spans are kept in memory and written out by {!write_jsonl} when
    the run ends.  Self time (a span's duration minus the part of it
    its child spans cover) is accumulated per name as spans close, so
    the per-layer report needs no post-pass.

    Recording is for one domain only: the traced run executes at
    [--domains 1].  When {!on} is false, {!wrap} is a plain call. *)

val on : bool ref

val start : unit -> unit
(** Clear everything recorded so far and switch recording on. *)

val stop : unit -> unit

val set_op : int -> unit
(** Op id stamped on the spans opened from now on. *)

val wrap : string -> (unit -> 'a) -> 'a
(** [wrap name f] runs [f ()] inside a span called [name]. *)

type total = { calls : int; self_s : float; self_samples : float array }

val totals : unit -> (string * total) list
(** Per span name: closed calls, summed self time in seconds, and every
    call's self time (for percentiles), sorted by name. *)

val total : string -> total
(** One name's totals; zero calls when it never closed. *)

val recorded : unit -> int
(** Spans closed since {!start}. *)

val write_jsonl : path:string -> int
(** Write the kept spans, one JSON object per line
    ([name], [start_us], [end_us], [parent], [op], [id]); returns the
    number written.  At most [keep_limit] spans are kept; the rest
    still count in {!totals}. *)

val keep_limit : int
