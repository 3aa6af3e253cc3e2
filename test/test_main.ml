(* The suites that fork worker processes come first: OCaml 5 refuses
   [Unix.fork] once the process has spawned a domain. *)
let () =
  Alcotest.run "s2e"
    [
      ("dist", Test_dist.tests);
      ("obs", Test_obs.tests);
      ("fault", Test_fault.tests);
      ("expr", Test_expr.tests);
      ("prop_expr", Test_prop_expr.tests);
      ("solver", Test_solver.tests);
      ("isa_vm", Test_isa_vm.tests);
      ("cc", Test_cc.tests);
      ("core", Test_core_units.tests);
      ("engine", Test_engine.tests);
      ("parallel", Test_parallel.tests);
      ("merge", Test_merge.tests);
      ("trace", Test_trace.tests);
      ("guest", Test_guest.tests);
      ("cachesim", Test_cachesim.tests);
      ("plugins", Test_plugins.tests);
      ("extensions", Test_extensions.tests);
      ("tools", Test_tools.tests);
      ("oracle", Test_oracle.tests);
      ("fastpath", Test_fastpath.tests);
    ]
