let () =
  Alcotest.run "pqtls"
    (Test_crypto.suites @ Test_bignum.suites @ Test_pubkey.suites
   @ Test_kyber.suites @ Test_slh.suites @ Test_dilithium.suites @ Test_pqc.suites
   @ Test_netsim.suites @ Test_tls.suites @ Test_core.suites
   @ Test_pool.suites @ Test_failures.suites @ Test_metrics.suites
   @ Test_trace.suites @ Test_farm.suites @ Test_profile.suites
   @ Test_pins.suites)
