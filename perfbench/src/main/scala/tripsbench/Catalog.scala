package tripsbench

/** Every metric the benchmark reports, with its unit. BENCHMARK.json lists
  * the same names and units (CatalogSpec checks it). */
object Catalog {

  /** Reported by `--trace 0` runs. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "throughput_rec_s" -> "rec/s",
    "cached_mb" -> "MB",
    "event_region_acc" -> "share",
    "region_acc" -> "share",
    "clean_pos_err_m" -> "m",
    "gap_coverage" -> "share",
    "gap_region_acc" -> "share",
  )

  /** Reported by `--trace 1` runs. */
  val PerLayer: Seq[(String, String)] = Seq(
    "gen.simulate_s" -> "s",
    "ml.train_s" -> "s",
    "indoor.min_walk_dist_us" -> "us",
    "indoor.along_path_us" -> "us",
    "indoor.region_at_snapped_us" -> "us",
    "clean.wall_s" -> "s",
    "clean.1t_s" -> "s",
    "clean.spark_ratio" -> "ratio",
    "clean.records" -> "count",
    "clean.dedup" -> "count",
    "clean.repair_floor" -> "count",
    "clean.repair_interp" -> "count",
    "clean.repair_reanchor" -> "count",
    "clean.jobs" -> "count",
    "clean.shuffle_write_bytes" -> "bytes",
    "annotate.wall_s" -> "s",
    "annotate.1t_s" -> "s",
    "annotate.split_1t_s" -> "s",
    "annotate.spark_ratio" -> "ratio",
    "annotate.snippets_dense" -> "count",
    "annotate.snippets_move" -> "count",
    "annotate.semantics" -> "count",
    "annotate.shuffle_write_bytes" -> "bytes",
    "knowledge.wall_s" -> "s",
    "knowledge.jobs" -> "count",
    "knowledge.stages" -> "count",
    "knowledge.shuffle_write_bytes" -> "bytes",
    "knowledge.transitions" -> "count",
    "complement.wall_s" -> "s",
    "complement.1t_s" -> "s",
    "complement.spark_ratio" -> "ratio",
    "complement.holes" -> "count",
    "complement.filled" -> "count",
    "complement.unfillable" -> "count",
    "complement.inferred" -> "count",
    "complement.map_path_us" -> "us",
    "spark.jobs" -> "count",
    "spark.stages" -> "count",
    "spark.tasks" -> "count",
    "spark.shuffle_read_bytes" -> "bytes",
    "spark.shuffle_write_bytes" -> "bytes",
    "spark.cached_bytes" -> "bytes",
    "select.wall_ms" -> "ms",
    "view.wall_ms" -> "ms",
    "trace.translate_s" -> "s",
    "trace.translate_self_s" -> "s",
    "trace.overhead_s" -> "s",
  )
}
