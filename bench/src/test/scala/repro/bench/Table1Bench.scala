package repro.bench

import repro.jobs.Table1Demo

/** T1 — the paper's Table 1, reproduced end-to-end: raw records vs the
  * translated mobility semantics for the Adidas/Nike/Cashier shopper. */
class Table1Bench extends BenchBase {

  test("Table 1: raw positioning records vs mobility semantics") {
    banner("T1 (paper Table 1): raw records vs mobility semantics")
    val table = Table1Demo.run(spark)
    println(table)
    QualityLog.record("T1", "table" -> table.linesIterator.toSeq)
    assert(table.contains("stay, Adidas"))
    assert(table.contains("pass-by, Nike"))
    assert(table.contains("stay, Cashier"))
  }
}
