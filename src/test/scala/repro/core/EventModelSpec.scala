package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.config.EventEditor.TrainingExample
import repro.core.Schema._

class EventModelSpec extends AnyFunSuite {

  /** Synthetic feature vectors: stays are long/slow/compact, pass-bys are
    * short/fast/stretched — mirroring what [[Features]] produces. */
  private def stayF(rng: scala.util.Random) = Array(
    200 + rng.nextDouble() * 400,  // duration
    5 + rng.nextDouble() * 20,     // pathLen
    0.05 + rng.nextDouble() * 0.3, // avgSpeed
    0.2 + rng.nextDouble() * 0.6,  // maxSpeed
    1 + rng.nextDouble() * 6,      // locVariance
    2 + rng.nextDouble() * 8,      // coveringRange
    rng.nextInt(8).toDouble,       // nTurns
    20 + rng.nextInt(100).toDouble)

  private def passF(rng: scala.util.Random) = Array(
    10 + rng.nextDouble() * 80,
    15 + rng.nextDouble() * 60,
    0.8 + rng.nextDouble() * 1.0,
    1.0 + rng.nextDouble() * 1.5,
    8 + rng.nextDouble() * 40,
    10 + rng.nextDouble() * 30,
    rng.nextInt(4).toDouble,
    3 + rng.nextInt(15).toDouble)

  private def examples(n: Int, seed: Int): Seq[TrainingExample] = {
    val rng = new scala.util.Random(seed)
    (0 until n).map(i =>
      if (i % 2 == 0) TrainingExample(s"d$i", Stay, stayF(rng))
      else TrainingExample(s"d$i", PassBy, passF(rng)))
  }

  test("training requires both classes") {
    intercept[IllegalArgumentException] { EventModel.train(Seq.empty) }
    intercept[IllegalArgumentException] {
      EventModel.train(Seq(TrainingExample("d", Stay, Array(1.0))))
    }
  }

  test("learns the stay vs pass-by boundary") {
    val model = EventModel.train(examples(200, 1))
    val rng = new scala.util.Random(99)
    val test = (0 until 100).map(i =>
      if (i % 2 == 0) (stayF(rng), Stay) else (passF(rng), PassBy))
    val acc = test.count { case (f, label) =>
      val sf = SnippetFeatures("d", 0, f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7))
      model.annotate(sf) == label
    }.toDouble / test.size
    assert(acc >= 0.9, s"held-out accuracy $acc")
  }

  test("stayProbability orders prototypical snippets") {
    val model = EventModel.train(examples(200, 2))
    val stay = SnippetFeatures("d", 0, 400, 10, 0.1, 0.3, 3, 5, 2, 60)
    val pass = SnippetFeatures("d", 1, 20, 30, 1.4, 1.8, 20, 25, 1, 5)
    assert(model.stayProbability(stay) > model.stayProbability(pass))
  }

  test("model survives serialization") {
    val model = EventModel.train(examples(50, 3))
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(model)
    val back = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[EventModel]
    val f = SnippetFeatures("d", 0, 400, 10, 0.1, 0.3, 3, 5, 2, 60)
    assert(back.annotate(f) == model.annotate(f))
  }
}
