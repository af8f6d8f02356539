package repro.indoor

import org.scalatest.funsuite.AnyFunSuite
import repro.indoor.Geometry._

/** DSM topology and indoor-distance tests on a small hand-built space:
  *
  * Floor 0: roomA [0,10]x[0,10] — d1(10,5) — roomB [10,20]x[0,10]
  *          — d2(20,5) — stair0 [20,25]x[0,10]
  * Floor 1: stair1 [20,25]x[0,10] — d3(20,5) — roomC [10,20]x[0,10]
  * stair0 — stair1 via connector at (22.5,5), crossCost 7.
  * Plus an isolated roomX [40,50]x[0,10] on floor 0 with no door.
  */
class DsmSpec extends AnyFunSuite {

  private val regions = IndexedSeq(
    Region("A", 0, Rect(0, 0, 10, 10), "Room A", "room"),
    Region("B", 0, Rect(10, 0, 20, 10), "Room B", "room"),
    Region("S0", 0, Rect(20, 0, 25, 10), "Stairs 1F", "staircase"),
    Region("S1", 1, Rect(20, 0, 25, 10), "Stairs 2F", "staircase"),
    Region("C", 1, Rect(10, 0, 20, 10), "Room C", "room"),
    Region("X", 0, Rect(40, 0, 50, 10), "Isolated", "room"))

  private val doors = IndexedSeq(
    Door("d1", "A", "B", 10, 5),
    Door("d2", "B", "S0", 20, 5),
    Door("d3", "S1", "C", 20, 5),
    Door("v01", "S0", "S1", 22.5, 5, crossCost = 7.0))

  private val dsm = new Dsm(regions, doors)

  private def p(x: Double, y: Double, f: Int) = IndoorPoint(x, y, f)

  test("constructor rejects duplicate region ids") {
    intercept[IllegalArgumentException] {
      new Dsm(regions :+ regions.head, doors)
    }
  }
  test("constructor rejects door to unknown region") {
    intercept[IllegalArgumentException] {
      new Dsm(regions, doors :+ Door("bad", "A", "NOPE", 0, 0))
    }
  }

  test("regionById and regionsOnFloor") {
    assert(dsm.regionById("A").tag == "Room A")
    assert(dsm.regionsOnFloor(0).map(_.id).toSet == Set("A", "B", "S0", "X"))
    assert(dsm.regionsOnFloor(1).map(_.id).toSet == Set("S1", "C"))
    assert(dsm.regionsOnFloor(9).isEmpty)
  }
  test("doorsOfRegion") {
    assert(dsm.doorsOfRegion("B").map(_.id).toSet == Set("d1", "d2"))
    assert(dsm.doorsOfRegion("X").isEmpty)
  }
  test("adjacentRegions derived from doors") {
    assert(dsm.adjacentRegions("B") == Set("A", "S0"))
    assert(dsm.adjacentRegions("S0") == Set("B", "S1"))
    assert(dsm.adjacentRegions("X") == Set.empty)
  }

  test("regionAtSnapped inside a region") {
    assert(dsm.regionAtSnapped(p(5, 5, 0)).map(_.id).contains("A"))
    assert(dsm.regionAtSnapped(p(15, 5, 1)).map(_.id).contains("C"))
  }
  test("regionAtSnapped respects floor") {
    assert(dsm.regionAtSnapped(p(15, 5, 0)).map(_.id).contains("B"))
    // (5, 5) on floor 1 is outside roomC's west wall: it snaps onto it.
    assert(dsm.regionAtSnapped(p(5, 5, 1)).map(_.id).contains("C"))
  }
  test("regionAtSnapped outside everything snaps to the nearest wall") {
    assert(dsm.regionAtSnapped(p(26, 5, 0)).map(_.id).contains("S0"))
    assert(dsm.locate(p(26, 5, 0)).point == p(25, 5, 0))
    assert(dsm.regionAtSnapped(p(30, 5, 0)).map(_.id).contains("S0")) // 5 m from S0, 10 m from X
  }

  test("locate: an inside point is its own snap, in the smallest containing region") {
    val l = dsm.locate(p(5, 5, 0))
    assert(l.point == p(5, 5, 0) && l.region.map(_.id).contains("A"))
    val small = Region("SM", 0, Rect(4, 4, 6, 6), "Small", "room")
    assert(new Dsm(regions :+ small, doors).locate(p(5, 5, 0)).region.map(_.id).contains("SM"))
  }
  test("locate: an outside point snaps to the nearest wall") {
    val l = dsm.locate(p(26, 5, 0))
    assert(l.point == p(25, 5, 0) && l.region.map(_.id).contains("S0"))
  }
  test("locate: a floor without regions is off the map") {
    val l = dsm.locate(p(5, 5, 9))
    assert(l.point == p(5, 5, 9) && l.region.isEmpty)
    assert(dsm.minWalkDist(p(5, 5, 9), p(5, 5, 0)).isInfinity)
  }

  private val nonFinite = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
  for (v <- nonFinite) {
    test(s"a point with x or y = $v is off the map") {
      for (q <- Seq(p(v, 5, 0), p(5, v, 0), p(v, v, 1))) {
        val l = dsm.locate(q)
        assert(l.region.isEmpty)
        assert(l.point eq q) // kept as is, not clamped onto a wall
        assert(dsm.regionAtSnapped(q).isEmpty)
        assert(dsm.minWalkDist(q, p(5, 5, 0)) == Double.PositiveInfinity)
        assert(dsm.minWalkDist(p(5, 5, 0), q) == Double.PositiveInfinity)
        assert(dsm.minWalkDist(q, q) == Double.PositiveInfinity)
        assert(dsm.walk(q, p(5, 5, 0)).isEmpty)
        assert(dsm.alongPath(q, p(5, 5, 0), 0.5) eq q)
      }
    }
  }

  test("minWalkDist within one region is Euclidean") {
    assert(math.abs(dsm.minWalkDist(p(1, 1, 0), p(4, 5, 0)) - 5.0) < 1e-9)
  }
  test("minWalkDist across one door") {
    // (2,5) -> d1(10,5) -> (18,5): 8 + 8
    assert(math.abs(dsm.minWalkDist(p(2, 5, 0), p(18, 5, 0)) - 16.0) < 1e-9)
  }
  test("minWalkDist detours through the door, not through the wall") {
    // (2,1) to (18,1): straight line 16 but must route via d1(10,5)
    val d = dsm.minWalkDist(p(2, 1, 0), p(18, 1, 0))
    val expected = Pt(2, 1).dist(Pt(10, 5)) + Pt(10, 5).dist(Pt(18, 1))
    assert(math.abs(d - expected) < 1e-9)
    assert(d > 16.0)
  }
  test("minWalkDist across floors includes the stair crossCost") {
    // A(5,5,0)->d1(10,5)=5 ->d2(20,5)=10 ->v01(22.5,5)=2.5 +7 ->d3(20,5)=2.5 ->C(15,5,1)=5
    val d = dsm.minWalkDist(p(5, 5, 0), p(15, 5, 1))
    assert(math.abs(d - 32.0) < 1e-9)
  }
  test("minWalkDist is symmetric on this space") {
    val a = p(3, 7, 0); val b = p(17, 2, 1)
    assert(math.abs(dsm.minWalkDist(a, b) - dsm.minWalkDist(b, a)) < 1e-9)
  }
  test("minWalkDist to the isolated room is infinite") {
    assert(dsm.minWalkDist(p(5, 5, 0), p(45, 5, 0)).isInfinity)
  }
  test("minWalkDist snaps out-of-wall noise into the space") {
    val d = dsm.minWalkDist(p(-2, 5, 0), p(5, 5, 0)) // snaps to (0,5)
    assert(math.abs(d - 5.0) < 1e-9)
  }

  test("walkPath same region is the straight segment") {
    assert(dsm.walk(p(1, 1, 0), p(9, 9, 0)).map(_.steps.map(_.point)).contains(Vector(p(1, 1, 0), p(9, 9, 0))))
  }
  test("walkPath across rooms passes the door waypoints") {
    val path = dsm.walk(p(2, 5, 0), p(15, 5, 1)).get.steps.map(_.point)
    assert(path.head == p(2, 5, 0) && path.last == p(15, 5, 1))
    // Contains d1, d2, the stair connector (on both floors is one xy) and d3.
    assert(path.exists(w => w.x == 10 && w.y == 5 && w.floor == 0))
    assert(path.exists(w => w.x == 22.5 && w.y == 5))
    assert(path.exists(w => w.x == 20 && w.y == 5 && w.floor == 1))
  }
  test("walkPath to isolated room is None") {
    assert(dsm.walk(p(5, 5, 0), p(45, 5, 0)).isEmpty)
  }
  test("walkPath length equals minWalkDist (same floor)") {
    val a = p(2, 1, 0); val b = p(18, 9, 0)
    val path = dsm.walk(a, b).get.steps.map(_.point)
    val len = path.sliding(2).map { case Vector(u, v) => u.planarDist(v) }.sum
    assert(math.abs(len - dsm.minWalkDist(a, b)) < 1e-9)
  }

  test("alongPath endpoints") {
    val a = p(2, 5, 0); val b = p(18, 5, 0)
    assert(dsm.alongPath(a, b, 0.0) == a)
    assert(dsm.alongPath(a, b, 1.0) == b)
  }
  test("alongPath midpoint sits on the route") {
    val a = p(2, 5, 0); val b = p(18, 5, 0) // route is the straight y=5 line
    val m = dsm.alongPath(a, b, 0.5)
    assert(math.abs(m.x - 10.0) < 1e-9 && math.abs(m.y - 5.0) < 1e-9 && m.floor == 0)
  }
  test("alongPath switches floor along a stair segment") {
    val a = p(21, 5, 0); val b = p(21, 5, 1) // within stairs, via v01
    val early = dsm.alongPath(a, b, 0.1)
    val late = dsm.alongPath(a, b, 0.95)
    assert(early.floor == 0)
    assert(late.floor == 1)
  }
  test("alongPath unreachable falls back to start") {
    assert(dsm.alongPath(p(5, 5, 0), p(45, 5, 0), 0.5) == p(5, 5, 0))
  }

  test("regionAtSnapped prefers the smaller region on boundary overlap") {
    val small = Region("SM", 0, Rect(4, 4, 6, 6), "Small", "room")
    val d2 = new Dsm(regions :+ small, doors)
    assert(d2.regionAtSnapped(p(5, 5, 0)).map(_.id).contains("SM"))
  }
  test("regionAtSnapped is locate's region outside a wall that a larger, earlier region shares") {
    // A corridor drawn before a shop in its corner: both hold the shop's
    // west wall x = 0, so a record 1 m outside it snaps onto the shared
    // wall, where the shop is the smaller region.
    val corridor = Region("COR", 0, Rect(0, 0, 100, 10), "Corridor", "corridor")
    val shop = Region("SHOP", 0, Rect(0, 0, 10, 5), "Shop", "room")
    val d2 = new Dsm(IndexedSeq(corridor, shop), IndexedSeq(Door("ds", "COR", "SHOP", 10, 2.5)))
    for (q <- Seq(p(-1, 2, 0), p(0.5, 2, 0), p(-3, -1, 0))) {
      assert(d2.regionAtSnapped(q).map(_.id).contains("SHOP"), q)
      assert(d2.regionAtSnapped(q) == d2.locate(q).region, q)
    }
    assert(d2.regionAtSnapped(p(-1, 7, 0)).map(_.id).contains("COR"))
  }
  test("semanticTags sorted distinct") {
    assert(dsm.semanticTags ==
      Seq("Isolated", "Room A", "Room B", "Room C", "Stairs 1F", "Stairs 2F"))
  }
  test("dsm is serializable (spark closure requirement)") {
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(dsm)
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    val back = in.readObject().asInstanceOf[Dsm]
    assert(math.abs(back.minWalkDist(p(5, 5, 0), p(15, 5, 1)) - 32.0) < 1e-9)
  }
}
