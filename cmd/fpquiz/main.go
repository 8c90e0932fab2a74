// Command fpquiz administers the paper's floating point quiz at the
// terminal, grading answers with the softfloat oracle. It can also dump
// the full oracle-derived answer key with witnesses.
//
// Usage:
//
//	fpquiz              # take the quiz interactively
//	fpquiz -answers     # print every question with its derived answer
//	fpquiz -section core|opt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"fpstudy/internal/cliout"
	"fpstudy/internal/quiz"
	"fpstudy/internal/survey"
)

// out buffers standard output; exit flushes it (see cliout).
var out = bufio.NewWriter(os.Stdout)

func exit(code int) {
	os.Exit(cliout.Flush("fpquiz", out, code))
}

func main() {
	answers := flag.Bool("answers", false, "print the oracle-derived answer key and exit")
	section := flag.String("section", "all", "which quiz to run: core, opt, or all")
	flag.Parse()

	if *answers {
		printAnswerKey(*section)
	} else {
		runInteractive(*section)
	}
	exit(0)
}

func printAnswerKey(section string) {
	if section == "core" || section == "all" {
		fmt.Fprintln(out, "Core quiz answer key (every answer derived by executing IEEE semantics)")
		fmt.Fprintln(out, strings.Repeat("=", 72))
		for i, q := range quiz.CoreQuestions() {
			res := q.Oracle()
			fmt.Fprintf(out, "\n%2d. %s\n", i+1, q.Label)
			fmt.Fprintf(out, "    %s\n", indent(q.Snippet, "    "))
			fmt.Fprintf(out, "    Assertion: %s\n", q.Prompt)
			fmt.Fprintf(out, "    Answer: %v\n", res.Holds)
			fmt.Fprintf(out, "    Why: %s\n", res.Witness)
		}
	}
	if section == "opt" || section == "all" {
		fmt.Fprintln(out, "\nOptimization quiz answer key")
		fmt.Fprintln(out, strings.Repeat("=", 72))
		for i, q := range quiz.OptQuestions() {
			res := q.Oracle()
			fmt.Fprintf(out, "\n%2d. %s\n", i+1, q.Label)
			fmt.Fprintf(out, "    %s\n", q.Prompt)
			if q.IsTrueFalse() {
				fmt.Fprintf(out, "    Answer: %v\n", res.Holds)
			} else {
				fmt.Fprintf(out, "    Answer: %s\n", q.CorrectChoice)
			}
			fmt.Fprintf(out, "    Why: %s\n", res.Witness)
		}
	}
}

func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}

func runInteractive(section string) {
	in := bufio.NewScanner(os.Stdin)
	resp := survey.Response{Token: "you", Answers: map[string]survey.Answer{}}

	ask := func(prompt string, options []string) string {
		fmt.Fprintln(out)
		fmt.Fprintln(out, prompt)
		fmt.Fprintf(out, "[%s] > ", strings.Join(options, "/"))
		// The prompt must show before the read blocks; a write error
		// sticks, and exit reports it.
		out.Flush() //nolint:errcheck
		if !in.Scan() {
			return ""
		}
		return strings.ToLower(strings.TrimSpace(in.Text()))
	}

	if section == "core" || section == "all" {
		fmt.Fprintln(out, "Core quiz: for each code snippet, is the assertion true or false?")
		fmt.Fprintln(out, "(t = true, f = false, d = don't know, enter = skip)")
		for i, q := range quiz.CoreQuestions() {
			a := ask(fmt.Sprintf("%d/%d\n%s\n%s", i+1, 15, q.Snippet, q.Prompt),
				[]string{"t", "f", "d"})
			switch a {
			case "t", "true":
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerTrue}
			case "f", "false":
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerFalse}
			case "d", "dk":
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerDontKnow}
			}
		}
		t := quiz.ScoreCore(resp)
		fmt.Fprintf(out, "\nCore quiz: %d correct, %d incorrect, %d don't know, %d unanswered (chance: %.1f; paper mean: 8.5)\n",
			t.Correct, t.Incorrect, t.DontKnow, t.Unanswered, quiz.CoreChance)
	}

	if section == "opt" || section == "all" {
		fmt.Fprintln(out, "\nOptimization quiz:")
		for _, q := range quiz.OptQuestions() {
			if q.IsTrueFalse() {
				a := ask(q.Prompt, []string{"t", "f", "d"})
				switch a {
				case "t", "true":
					resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerTrue}
				case "f", "false":
					resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerFalse}
				case "d", "dk":
					resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerDontKnow}
				}
				continue
			}
			a := ask(q.Prompt, append(append([]string{}, q.Choices...), "d"))
			if a == "d" || a == "dk" {
				resp.Answers[q.ID] = survey.Answer{Choice: survey.AnswerDontKnow}
			} else if a != "" {
				resp.Answers[q.ID] = survey.Answer{Choice: a}
			}
		}
		t := quiz.ScoreOpt(resp)
		fmt.Fprintf(out, "\nOptimization quiz: %d correct, %d incorrect, %d don't know, %d unanswered\n",
			t.Correct, t.Incorrect, t.DontKnow, t.Unanswered)
	}

	fmt.Fprintln(out, "\nRun `fpquiz -answers` to see the oracle's explanations.")
}
