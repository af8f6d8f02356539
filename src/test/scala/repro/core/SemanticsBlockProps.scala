package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.core.Schema._
import repro.gen.Mall
import scala.util.Try

/** `SemanticsBlock` against its definition: a partition's devices, each
  * with its annotated semantics, survive encode → decode bit for bit, and
  * each semantics takes exactly the bytes of its three zigzag varints.
  * Devices have no semantics, one or many; semantics name every DSM region
  * with either event; times include `Long.MinValue`, `Long.MaxValue`,
  * negative values and `tStart == tEnd`, in any order (a delta may wrap).
  */
object SemanticsBlockProps extends Properties("SemanticsBlock") {

  override def overrideParameters(p: org.scalacheck.Test.Parameters): org.scalacheck.Test.Parameters =
    p.withMinSuccessfulTests(1000)

  private val dsm = Mall.dsm()

  private val time: Gen[Long] = Gen.frequency(
    2 -> Gen.oneOf(Long.MinValue, Long.MaxValue, Long.MinValue + 1, Long.MaxValue - 1, 0L, -1L, 1L),
    2 -> Gen.chooseNum(Long.MinValue, -1L),
    2 -> Gen.chooseNum(WeekStart, WeekStart + 7 * SecondsPerDay),
    1 -> Gen.chooseNum(Long.MinValue, Long.MaxValue))

  /** A time range: ordered, equal, or arbitrary (`tEnd` before `tStart`). */
  private val range: Gen[(Long, Long)] = Gen.oneOf(
    time.map(t => (t, t)),
    Gen.zip(time, time).map { case (a, b) => (a min b, a max b) },
    Gen.zip(time, time),
    Gen.zip(time, Gen.chooseNum(0L, 3600L)).map { case (t, d) => (t, t + d) })

  private def device(id: String): Gen[(String, Vector[Semantic])] = for {
    n <- Gen.frequency(2 -> Gen.const(0), 2 -> Gen.const(1), 4 -> Gen.chooseNum(2, 30))
    ss <- Gen.listOfN(n, Gen.zip(Gen.oneOf(dsm.regions), Gen.oneOf(Stay, PassBy), range))
  } yield id -> ss.toVector.zipWithIndex.map { case ((r, event, (t0, t1)), i) =>
    Semantic(id, i, event, r.tag, r.id, t0, t1, source = "annotated")
  }

  /** One partition's devices, with distinct ids in no particular order. */
  private val partition: Gen[Vector[(String, Vector[Semantic])]] = for {
    n <- Gen.chooseNum(0, 12)
    ids <- Gen.listOfN(n, Gen.chooseNum(0, 999)).map(_.distinct.map(i => f"3a:00:00:00:$i%04d"))
    devs <- Gen.sequence[Vector[(String, Vector[Semantic])], (String, Vector[Semantic])](ids.map(device))
  } yield devs

  private def roundTrip(devs: Vector[(String, Vector[Semantic])]): Vector[(String, Vector[Semantic])] =
    SemanticsBlock.encode(dsm, devs).devices(dsm).toVector

  /** Bytes of the unsigned LEB128 varint of `v` zigzag-encoded, computed
    * on unbounded integers. */
  private def varintBytes(v: Long): Int = {
    val z = if (v >= 0) BigInt(v) * 2 else -BigInt(v) * 2 - 1
    math.max(1, (z.bitLength + 6) / 7)
  }

  property("encode → decode is the identity") = forAll(partition) { devs =>
    roundTrip(devs) == devs
  }

  property("three zigzag varints per semantics") = forAll(partition) { devs =>
    val expected = devs.map { case (_, ss) =>
      ss.foldLeft((0L, 0)) { case ((prevEnd, n), s) =>
        val stay = if (s.event == Stay) 1L else 0L
        (s.tEnd, n + varintBytes(s.tStart - prevEnd) + varintBytes(s.tEnd - s.tStart) +
                 varintBytes((dsm.regions.indexWhere(_.id == s.regionId).toLong << 1) | stay))
      }._2
    }.sum
    SemanticsBlock.encode(dsm, devs).data.length == expected
  }

  property("every region with both events, at the extreme times") = Prop {
    val extremes = Seq(Long.MinValue, Long.MaxValue, -1L, 0L, WeekStart)
    val devs = dsm.regions.toVector.zipWithIndex.map { case (r, k) =>
      val id = s"dev-$k"
      id -> Vector(Stay, PassBy, Stay).zipWithIndex.map { case (e, i) =>
        val t0 = extremes((k + i) % extremes.size)
        val t1 = extremes((k + 2 * i + 1) % extremes.size)
        Semantic(id, i, e, r.tag, r.id, t0, t1, source = "annotated")
      }
    }
    roundTrip(devs) == devs && roundTrip(Vector.empty).isEmpty
  }

  property("encode rejects what the block cannot carry") = forAll(partition.suchThat(_.exists(_._2.nonEmpty))) {
    devs =>
      val (id, ss) = devs.find(_._2.nonEmpty).get
      val s = ss.head
      Seq(s.copy(seqNo = 1), s.copy(source = "inferred"), s.copy(event = "browse"),
          s.copy(deviceId = id + "x"), s.copy(tag = s.tag + "?"), s.copy(regionId = "nowhere"))
        .forall(bad => Try(SemanticsBlock.encode(dsm, devs.map {
          case (`id`, _) => id -> (bad +: ss.tail)
          case d         => d
        })).isFailure)
  }
}
