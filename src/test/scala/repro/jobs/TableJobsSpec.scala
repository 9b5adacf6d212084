package repro.jobs

import java.lang.reflect.Modifier

import org.scalatest.funsuite.AnyFunSuite

/** The spark-submit entrypoints, checked without running them: a run
  * would stop the shared test session.
  */
class TableJobsSpec extends AnyFunSuite {

  test("the nine spark-submit names stay static main(String[]) methods") {
    val names = Seq("TableIII", "TableIV", "TableV", "TableVI", "TableVII",
                    "DataSize", "NonIid", "Efficiency", "RealData")
    for (name <- names) {
      val main = Class.forName(s"repro.jobs.$name").getMethod("main", classOf[Array[String]])
      assert(Modifier.isStatic(main.getModifiers) && Modifier.isPublic(main.getModifiers), name)
      assert(main.getReturnType == Void.TYPE, name)
    }
  }
}
