package tripsbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.scalatest.funsuite.AnyFunSuite
import scala.jdk.CollectionConverters._

/** BENCHMARK.json (at the repository root) must name exactly the metrics
  * the benchmark prints, with the same units. */
class CatalogSpec extends AnyFunSuite {

  private lazy val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def listed(key: String): Seq[(String, String)] =
    spec.get(key).elements().asScala.map(m => m.get("name").asText() -> m.get("unit").asText()).toSeq

  test("end-to-end metrics match BENCHMARK.json") {
    assert(listed("end_to_end") == Catalog.EndToEnd)
  }

  test("per-layer metrics match BENCHMARK.json") {
    assert(listed("per_layer") == Catalog.PerLayer)
  }

  test("workloads match BENCHMARK.json") {
    val names = spec.get("workloads").elements().asScala.map(_.get("name").asText()).toSet
    assert(names == Main.Workloads.keySet)
  }
}
