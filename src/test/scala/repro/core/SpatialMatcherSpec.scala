package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Schema._
import repro.indoor.Geometry._
import repro.indoor.{Dsm, Door, Region}

class SpatialMatcherSpec extends AnyFunSuite {

  private val dsm = new Dsm(
    IndexedSeq(
      Region("A", 0, Rect(0, 0, 10, 10), "A", "room"),
      Region("B", 0, Rect(10, 0, 20, 10), "B", "room"),
      Region("K", 0, Rect(4, 4, 6, 6), "Kiosk", "room")), // nested in A
    IndexedSeq(Door("d1", "A", "B", 10, 5)))

  private def rec(ts: Long, x: Double, y: Double, f: Int = 0) =
    CleanRecord("dev", ts, x, y, f, "none")

  test("matchSnippet majority vote") {
    val s = Snippet("dev", 0, dense = true,
      Seq(rec(0, 2, 2), rec(5, 3, 3), rec(10, 15, 5)))
    assert(SpatialMatcher.matchSnippet(dsm, s).map(_.id).contains("A"))
  }

  test("matchSnippet prefers the smaller region on containment") {
    val s = Snippet("dev", 0, dense = true, Seq(rec(0, 5, 5), rec(5, 5.5, 5.5)))
    assert(SpatialMatcher.matchSnippet(dsm, s).map(_.id).contains("K"))
  }

  test("matchSnippet snaps out-of-wall records") {
    val s = Snippet("dev", 0, dense = false, Seq(rec(0, -3, 5), rec(5, -2, 5)))
    assert(SpatialMatcher.matchSnippet(dsm, s).map(_.id).contains("A"))
  }

  test("matchSnippet tie breaks deterministically by vote then area") {
    val s = Snippet("dev", 0, dense = false, Seq(rec(0, 2, 2), rec(5, 15, 5)))
    // 1 vote A, 1 vote B: maxBy keeps a deterministic winner (vote count
    // equal -> smaller area; A and B have equal area -> stable order).
    val r1 = SpatialMatcher.matchSnippet(dsm, s)
    val r2 = SpatialMatcher.matchSnippet(dsm, s)
    assert(r1.nonEmpty && r1.map(_.id) == r2.map(_.id))
  }

  test("matchSnippet on a floor without regions is None") {
    val s = Snippet("dev", 0, dense = true, Seq(rec(0, 5, 5, f = 99), rec(5, 5, 5, f = 99)))
    assert(SpatialMatcher.matchSnippet(dsm, s).isEmpty)
  }
}
