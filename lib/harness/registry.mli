(** The paper's experiments — Table I, Figs. 3-8, the ablations and
    the studies around them — one row each.

    A row's runner builds a {!report}; [covirt-ctl experiment],
    [bench/main.exe] and {!Golden.capture} all render from it, so an
    experiment is wired up once and every entry point prints the same
    bytes.  Adding an experiment means adding one row to {!all}. *)

type block =
  | Title of string  (** printed as [=== title ===] *)
  | Table of Covirt_sim.Table.t
  | Text of string  (** printed as is; ends with a newline *)

type report = {
  blocks : block list;  (** what {!print} shows, in order *)
  lines : string list;
      (** full-precision result lines for the golden capture, without
          trailing newlines; tables round to 4 significant digits,
          which could mask a small perturbation *)
}

type row = { name : string; run : quick:bool -> domains:int option -> report }
(** [quick] selects the reduced problem sizes.  [domains] is the fleet
    placement for the sharded runners (default
    [Covirt_fleet.Fleet.recommended_domains ()]); it never changes a
    byte of the report. *)

val report : ?lines:string list -> block list -> report

val all : row list
(** Every paper experiment, in the order [bench/main.exe] runs them.
    Names are unique. *)

val find : string -> row
(** @raise Not_found when no row has that name. *)

val campaign : trials:int -> domains:int option -> report
(** The ["campaign"] row at an explicit trial count (the row itself
    runs 25 trials quick, 60 full). *)

val print : report -> unit
(** Render to stdout: titles as [=== title ===] with a blank line
    around them, tables through [Covirt_sim.Table.print_auto] (so
    [--tsv] applies), text as is. *)
