package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM, or, when it is unset, to half of MemTotal clamped to
  * 2–8 GiB. Automatic broadcast joins are disabled, so every DataFrame join
  * here and in the benches (`Timeline`'s semantics-to-records join, the
  * per-second scoring joins of `Metrics`, the Data Selector's semi-join)
  * is planned as a shuffle join on its equality keys, whatever
  * the size of its inputs: the tests' tiny tables check the plan that the
  * benches' SF=0.1 tables run, and the DuckDB oracle checks its result.
  * Explicit `sparkContext.broadcast` values (the DSM, the knowledge) are
  * not affected.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
