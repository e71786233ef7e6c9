package main

// matchPayloads checks a frame's decoded payloads against the payloads it
// carried, by exact bytes. matched counts the carried payloads recovered,
// each at most once (a user the decoder separated twice is recovered once);
// wrong lists decoded payloads equal to none of the carried ones: wrong
// payloads that passed the decoder's CRC.
func matchPayloads(sent, decoded [][]byte) (matched int, wrong [][]byte) {
	used := make([]bool, len(sent))
	for _, got := range decoded {
		carried := false
		for i, want := range sent {
			if string(got) != string(want) {
				continue
			}
			carried = true
			if !used[i] {
				used[i] = true
				matched++
				break
			}
		}
		if !carried {
			wrong = append(wrong, got)
		}
	}
	return matched, wrong
}
