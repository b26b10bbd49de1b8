(** Relocation of cached summaries onto the current source layout.

    Cache keys are location-insensitive, so a hit can come from a source
    where the (structurally identical) function sat at different lines —
    a comment was edited above it, functions were reordered, the file was
    renamed.  The warnings inside the cached report carry the {e old}
    locations; this pass rewrites them to the fresh function's locations
    so the merged warm report is byte-identical to a cold run.

    The mapping zips the statements of the cached and fresh functions in
    source order (they correspond 1:1 because the cache verified
    {!Minilang.Ast.equal_func} before the hit) and substitutes location
    values; warnings
    are then re-sorted with the driver's comparator, which cold runs use
    on the same set.  The control-flow graph is rewritten onto the fresh
    function's statements as well, whatever the layouts: the
    instrumentation finds the sites to check by statement identity, so a
    graph over the cached AST would silently get no checks. *)

(** [func_report ~cached ~fresh fr] is [fr] with every warning location
    rewritten from [cached]'s layout to [fresh]'s and its graph over
    [fresh]'s statements: [fr] itself when [fresh] is [cached] (the
    same AST), one pass over the function when the layouts already
    coincide.  [cached] and [fresh] must be structurally equal
    ({!Minilang.Ast.equal_func}, the caches' hit condition).
    @raise Invalid_argument if their statement counts differ. *)
val func_report :
  cached:Minilang.Ast.func ->
  fresh:Minilang.Ast.func ->
  Parcoach.Driver.func_report ->
  Parcoach.Driver.func_report
