package repro.jobs

import java.nio.file.Files
import repro.SparkSpec
import repro.gen.Mall
import repro.indoor.DsmJson

/** The five-step walkthrough, end to end at SF=0.01. */
class WalkthroughJobSpec extends SparkSpec {

  test("walkthrough writes the DSM and the semantics and leaves no cached data") {
    val out = Files.createTempDirectory("walkthrough")
    try {
      val sc = spark.sparkContext
      def cached = sc.getPersistentRDDs.keySet.toSet
      val before = cached
      WalkthroughJob.run(spark, 0.01, out.toString)
      assert((cached -- before).isEmpty)

      val dsm = DsmJson.read(Files.readString(out.resolve("dsm.json")))
      val mall = Mall.dsm()
      assert(dsm.regions == mall.regions && dsm.doors == mall.doors)
      assert(spark.read.json(out.resolve("semantics.json").toString).count() > 0)
    } finally new scala.reflect.io.Directory(out.toFile).deleteRecursively()
  }
}
