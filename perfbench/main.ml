let () = Perfbench.Bench.main ()
