package repro.perfbench

/** Names and units of every metric the benchmark prints. BENCHMARK.json
  * declares the same lists; the self-test checks that they agree.
  */
object Metrics {
  /** Printed by an untraced run (`--trace 0`). */
  val endToEnd: Seq[(String, String)] = Seq(
    "repro_buf_mrows_per_s"     -> "Mrows/s",
    "repro_mrows_per_s"         -> "Mrows/s",
    "native_mrows_per_s"        -> "Mrows/s",
    "repro_buf_f32_mrows_per_s" -> "Mrows/s",
    "alloc_bytes_per_row"       -> "B/row",
    "setup_s"                   -> "s",
  )

  /** Printed by a traced run (`--trace 1`). A metric of a layer the
    * workload does not run reads 0.
    */
  val perLayer: Seq[(String, String)] = Seq(
    "core.batch_run_ns_per_value"       -> "ns/value",
    "core.batch_run_calls_per_row"      -> "1/row",
    "core.flush_fill_ratio"             -> "ratio",
    "core.add_ns_per_value"             -> "ns/value",
    "core.eval_ns_per_group"            -> "ns/group",
    "core.merge_ns_per_state"           -> "ns/state",
    "core.serialize_ns_per_state"       -> "ns/state",
    "core.deserialize_ns_per_state"     -> "ns/state",
    "core.state_bytes"                  -> "B",
    "exec.partition_ns_per_row"         -> "ns/row",
    "exec.partition_alloc_bytes_per_row" -> "B/row",
    "exec.aggregate_ns_per_row"         -> "ns/row",
    "exec.emit_ns_per_group"            -> "ns/group",
    "exec.table_bytes"                  -> "B",
    "spark.agg_time_ms"                 -> "ms",
    "spark.fallback_frac"               -> "ratio",
    "spark.spill_bytes"                 -> "B",
    "spark.shuffle_write_bytes_per_row" -> "B/row",
    "spark.executor_cpu_ms"             -> "ms",
    "spark.gc_ms"                       -> "ms",
    "spark.update_ns_per_row"           -> "ns/row",
    "spark.merge_ns_per_state"          -> "ns/state",
    "spark.serialize_ns_per_state"      -> "ns/state",
    "spark.deserialize_ns_per_state"    -> "ns/state",
    "tables.plan_ms"                    -> "ms",
    "tables.exec_ms"                    -> "ms",
    "jvm.gc_ms"                         -> "ms",
    "trace.overhead_frac"               -> "ratio",
    "self.bench_ms_per_op"              -> "ms",
    "self.exec_ms_per_op"               -> "ms",
    "self.spark_ms_per_op"              -> "ms",
    "self.tables_ms_per_op"             -> "ms",
  )

  /** Relative tolerance for `native` results. Every workload sums
    * non-negative values, at most 2^22 per group, so recursive summation in
    * any order is within (n-1)·u < 4.7e-10 relative of the exact sum; the
    * reproducible reference (L >= 2, W = 40) is within about 1e-12 of it.
    */
  val NativeRelTol: Double = 1e-9
}
