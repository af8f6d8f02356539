package tripsbench

import org.scalatest.funsuite.AnyFunSuite

class SpanSpec extends AnyFunSuite {

  private val S = 1000000000L
  private def span(id: Int, parent: Option[Int], start: Long, end: Long) =
    Span(id, s"s$id", parent, 0, start * S, end * S)

  test("a leaf's self time is its duration") {
    assert(Span.selfTimes(Seq(span(0, None, 2, 7)))(0) == 5.0)
  }

  test("children's time is subtracted from the parent only") {
    val spans = Seq(
      span(0, None, 0, 10),
      span(1, Some(0), 1, 4),
      span(2, Some(0), 5, 9),
      span(3, Some(1), 2, 3))
    val self = Span.selfTimes(spans)
    assert(self(0) == 3.0)
    assert(self(1) == 2.0)
    assert(self(2) == 4.0)
    assert(self(3) == 1.0)
    // Self times of a tree add up to the root's wall time.
    assert(self.values.sum == spans.head.seconds)
  }

  test("overlapping children are counted once") {
    val self = Span.selfTimes(Seq(
      span(0, None, 0, 10), span(1, Some(0), 1, 6), span(2, Some(0), 4, 8)))
    assert(self(0) == 3.0)
  }

  test("a child running past its parent is clipped to the parent") {
    val self = Span.selfTimes(Seq(span(0, None, 0, 5), span(1, Some(0), 3, 9)))
    assert(self(0) == 3.0)
    assert(self(1) == 6.0)
  }

  test("separate operations do not affect each other") {
    val self = Span.selfTimes(Seq(
      span(0, None, 0, 4), span(1, Some(0), 0, 4),
      span(2, None, 4, 9), span(3, Some(2), 5, 6)))
    assert(self(0) == 0.0)
    assert(self(2) == 4.0)
  }
}
