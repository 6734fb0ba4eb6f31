(** Chaos-injection certifier for the supervised execution layer.

    Four certificates, each staging a real failure in a throwaway
    directory and checking the supervision invariants end to end:

    - {b chaos-resume} — a sweep is killed mid-batch and its
      checkpoint store corrupted in place (one row bit-flipped, one
      foreign line spliced in, the trailing row truncated mid-write).
      Reloading must quarantine the two damaged lines to the corrupt
      sibling, keep the intact row, drop only the partial tail, and a
      resume must produce a report byte-identical to an uninterrupted
      run's, losing no row.
    - {b chaos-deadline} — a never-terminating protocol is planted
      both directly under {!Congest.Engine.run} (the cooperative
      [with_deadline] scope must raise within tolerance of its budget) and as a
      sweep job (which must settle as a [status:"timeout"] row with
      the sweep completing around it).
    - {b chaos-retry} — a job fails its first two attempts; the
      seeded retry policy must succeed on the third, sleep exactly
      the job's deterministic backoff schedule, reproduce identical
      rows and sleeps on a second run, and quarantine nothing.
    - {b chaos-quarantine} — a job fails every attempt; after
      [max_attempts] it must move to the quarantine sibling (not the
      main store), count as settled on resume, be reported as
      [quarantined], and drag its series to [degraded] so fit gates
      over it return Inconclusive (exit 3) rather than a verdict.

    [negative_control] arms one sabotage per certificate — a silently
    deleted row, a supervisor that forgot the deadline, an ignored
    retry policy, a lost quarantine file — so the audit must Fail;
    [check chaos --negative-control] proves the suite can reject. *)

val certify :
  ?seed:int ->
  ?deadline_s:float ->
  ?negative_control:bool ->
  unit ->
  Report.certificate list
(** Run all four chaos certificates. [seed] (default 11) seeds the
    staged sweeps; [deadline_s] (default 0.05) is the wall-clock
    budget given to the planted infinite jobs. *)
